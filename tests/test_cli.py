"""CLI behavior: exit codes, JSON shapes, formats, determinism."""

import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import ucc
import ucc.entropy
import ucc.cli
from ucc.cli import _build_parser, run_cli
from tests.conftest import DATA_DIR, strict_json

POWERSET3 = str(DATA_DIR / "powerset3.uc")
TWO_SINGLETONS = str(DATA_DIR / "two_singletons.uc")
CHAIN4 = str(DATA_DIR / "chain4.uc")
NEAR_CLOSED = str(DATA_DIR / "near_closed.uc")
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_union_closed_file(capsys):
    code, out, err = run(capsys, "check", POWERSET3)
    assert code == 0
    assert err == ""
    obj = json.loads(out)
    assert obj["family_size"] == 8
    assert obj["universe"] == 3
    assert obj["union_closed"] is True
    assert obj["epsilon"] == {"num": 0, "den": 1}
    assert obj["max_freq"] == {"num": 1, "den": 2}
    assert obj["theorem"]["applicable"] is True
    assert obj["theorem"]["satisfied"] is True
    assert obj["psi"] == pytest.approx(ucc.PSI)


def test_check_vacuous_family(capsys):
    code, out, _ = run(capsys, "check", TWO_SINGLETONS)
    assert code == 0
    obj = json.loads(out)
    assert obj["union_closed"] is False
    assert obj["epsilon"] == {"num": 2, "den": 9}
    assert obj["theorem"]["applicable"] is False
    assert obj["theorem"]["satisfied"] is True


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/nope.uc")
    assert code == 2
    assert out == ""
    assert err.startswith("ucc:")


def test_check_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.uc"
    p.write_text("n=3\n101\nbananas\n")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "line 3" in err


def test_check_empty_family_rejected(tmp_path, capsys):
    p = tmp_path / "empty.uc"
    p.write_text("n=4\n")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "empty family" in err


def test_entropy_report_shape(capsys):
    code, out, _ = run(capsys, "entropy", POWERSET3)
    assert code == 0
    obj = json.loads(out)
    # union of two uniform powerset draws keeps bits independent at 3/4
    assert obj["entropy_union_bits"] == pytest.approx(3 * ucc.binary_entropy(0.25))
    for key in ("lower_bound", "upper_bound", "chain_rule"):
        sec = obj[key]
        assert sec["satisfied"] is True
        assert {"lhs_bits", "rhs_bits", "margin_bits", "applicable"} <= set(sec)
    assert obj["chain_rule"]["margin_bits"] == pytest.approx(0.0, abs=1e-12)


def test_entropy_chain_strict_on_chain_family(capsys):
    code, out, _ = run(capsys, "entropy", CHAIN4)
    assert code == 0
    obj = json.loads(out)
    assert obj["chain_rule"]["margin_bits"] > 0.01


def test_minimize_defaults(capsys):
    code, out, _ = run(capsys, "analytic", "minimize")
    assert code == 0
    obj = json.loads(out)
    assert obj["deviation_from_phi"] <= 1e-6
    assert abs(obj["value_minus_min"]) <= 1e-9
    assert obj["x_star"] == pytest.approx(ucc.PHI, abs=1e-6)


def test_grid_json_and_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "analytic", "grid", "--grid", "101")
    assert code == 0
    obj = json.loads(out)
    assert obj["grid_points"] == 101
    assert obj["min_margin"] >= -1e-12
    assert obj["phi"] == pytest.approx(ucc.PHI)

    # a .csv path gets the report as --format asks, JSON by default
    dest = tmp_path / "sweep.csv"
    assert run(capsys, "analytic", "grid", "--grid", "101",
               "--out", str(dest)) == (0, "", "")
    assert dest.read_text() == out

    code, out, _ = run(capsys, "analytic", "grid", "--grid", "101", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "key,value", f"min_margin,{obj['min_margin']!r}",
        f"argmin[0],{obj['argmin'][0]!r}", f"argmin[1],{obj['argmin'][1]!r}",
        f"argmin_margin,{obj['argmin_margin']!r}", "grid_points,101",
        f"phi,{ucc.PHI!r}"]


def test_grid_csv_sweeps_once(monkeypatch, capsys):
    from ucc.analytic import scalars

    sweeps: list[int] = []
    blocks = scalars._margin_blocks

    def counting(*args, **kwargs):
        sweeps.append(1)
        return blocks(*args, **kwargs)

    monkeypatch.setattr(scalars, "_margin_blocks", counting)
    code, out, _ = run(capsys, "analytic", "grid", "--grid", "101", "--format", "csv")
    assert code == 0 and len(sweeps) == 1
    assert out.startswith("key,value\n") and out.count("\n") == 7


def test_grid_csv_keeps_the_grid_floor(tmp_path, capsys):
    dest = tmp_path / "coarse.csv"
    for extra in (("--format", "csv"), ("--out", str(dest)), ()):
        code, out, err = run(capsys, "analytic", "grid", "--grid", "50", *extra)
        assert (code, out) == (2, "")
        assert err == "ucc: grid_points must be at least 100\n"
    assert not dest.exists()


def test_certify_verified_run(capsys):
    code, out, _ = run(capsys, "analytic", "certify", "--theta", "0.80",
                       "--eta", "0.01")
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["status"] == "verified"
    assert obj["violation_boxes"] == []
    assert obj["worst_box"] is None
    edges = obj["boundary"]
    assert min(edges["low_strip"], edges["high_strip"], edges["corner"]) >= 0.80
    assert 0.0 < edges["delta"] < 0.5
    assert len(obj["trace_digest"]) == 64


def test_certify_refuted_run(capsys):
    # threshold above the true minimum: counterexample boxes, exit still 0
    code, out, _ = run(capsys, "analytic", "certify", "--theta", "0.81",
                       "--eta", "0.0001")
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is False
    assert obj["status"] == "refuted"
    assert obj["worst_box"]["f_upper"] < 0.81
    assert sorted(obj["boundary"]) == ["corner", "delta", "high_strip", "low_strip"]
    assert "limitation" not in obj


def test_certify_low_edge_bound_is_indeterminate(capsys):
    # the interior verifies, but the edge bounds at eta = 0.05 stay near 0.69
    code, out, err = run(capsys, "analytic", "certify", "--theta", "0.809016",
                         "--eta", "0.05")
    obj = json.loads(out)
    assert (code, err) == (0, "")
    assert (obj["status"], obj["indeterminate_boxes"]) == ("indeterminate", 0)
    assert obj["violation_boxes"] == [] and obj["worst_box"] is None


def test_certify_at_the_eta_floor(capsys):
    # the first rungs of the edge ladder have g(1-delta) within the slack of
    # 0; they are skipped, so the run ends in one report, not a traceback.
    # At budgets 1 and 2 no pending box has an enclosure, so there is no
    # finite upper bound to report: worst_box is null, not Infinity.
    for budget, has_worst in (("1", False), ("2", False), ("100", True)):
        code, out, err = run(capsys, "analytic", "certify", "--theta", "0.7",
                             "--eta", "1.2e-16", "--budget", budget)
        assert (code, err) == (0, "")
        assert out.count("\n") == 1
        obj = strict_json(out)
        assert obj["status"] == "budget_exhausted"
        assert (obj["worst_box"] is not None) == has_worst


def test_certify_usage_error_is_one_line(capsys):
    code, out, err = run(capsys, "analytic", "certify", "--eta", "0.6")
    assert (code, out, err) == (2, "", "ucc: eta must be in (0, 0.1), got 0.6\n")
    # 1 - eta rounds to 1.0: refused up front, not inside an enclosure
    code, out, err = run(capsys, "analytic", "certify", "--eta", "5e-17")
    assert (code, out, err) == (
        2, "", "ucc: eta must exceed 2**-54 so that 1 - eta < 1, got 5e-17\n")


def test_certify_usage_error_before_setfamily_is_loaded():
    # a fresh interpreter: certify never loads setfamily, whose error
    # classes run_cli also reports, and a ValueError must still exit 2
    code = ("import sys\nfrom ucc.cli import run_cli\n"
            "bad = run_cli(['analytic', 'certify', '--eta', '0.6'])\n"
            "good = run_cli(['analytic', 'certify', '--theta', '0.7', '--eta', '0.01'])\n"
            "print(bad, good, 'ucc.setfamily' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.stderr == "ucc: eta must be in (0, 0.1), got 0.6\n2 0 False\n"
    assert json.loads(proc.stdout)["status"] == "verified"


def test_example_degenerate_spec(capsys):
    code, _, err = run(capsys, "example", "--n", "20")
    assert code == 2
    assert err == ("ucc: degenerate slice example: need 0 < k < m <= n, got "
                   "k=15, m=13, n=20 (the default spec only separates for larger n)\n")
    # with k given, the hint about the default spec does not apply
    code, _, err = run(capsys, "example", "--n", "100", "--k", "0")
    assert code == 2
    assert err == ("ucc: degenerate slice example: need 0 < k < m <= n, got "
                   "k=0, m=62, n=100\n")


def test_example_n1000(capsys):
    code, out, _ = run(capsys, "example", "--n", "1000")
    assert code == 0
    obj = json.loads(out)["example"]
    assert (obj["n"], obj["k"], obj["m"]) == (1000, 482, 619)
    assert obj["max_freq_exact"] == 0.4820000000002667
    assert obj["closure_deficit"] == 1.5150133934948656e-48
    assert obj["log2_inv_closure_deficit"] == pytest.approx(158.853, abs=1e-3)
    assert obj["psi_minus_delta"] <= obj["max_freq_exact"]
    assert obj["size_ratio"] < 1e-6


def test_example_null_log2_when_union_closed(capsys):
    code, out, _ = run(capsys, "example", "--n", "10", "--k", "3", "--m", "4")
    assert code == 0
    assert '"log2_inv_closure_deficit":null' in out
    assert json.loads(out)["example"]["closure_deficit"] == 0.0


def test_every_verb_rejects_tol_and_example_sampling_options(capsys):
    # every verdict is exact or certified, so no verb reads a tolerance
    verbs = [
        ("check", POWERSET3), ("entropy", POWERSET3),
        ("analytic", "minimize"), ("analytic", "grid"), ("analytic", "certify"),
        ("example", "--n", "1000"), ("enumerate", "--n", "3"),
        ("fuzz", "--n", "5", "--count", "10", "--seed", "7"),
    ]
    handlers = {fn for name, fn in vars(ucc.cli).items() if name.startswith("_cmd_")}
    assert {_build_parser().parse_args(argv).run for argv in verbs} == handlers
    for argv in verbs:
        assert run(capsys, *argv, "--tol=-0.2")[:2] == (2, ""), argv
    for option in ("--samples", "--seed", "--shards"):
        assert run(capsys, "example", "--n", "1000", option, "1")[0] == 2, option


@pytest.mark.parametrize("verb", ["check", "entropy"])
def test_every_data_file_is_decided(verb, capsys):
    for path in sorted(DATA_DIR.glob("*.uc")):
        code, out, err = run(capsys, verb, str(path))
        assert (code, err) == (0, ""), path.name
        obj = json.loads(out)
        sections = ("theorem", "lower_bound", "upper_bound", "chain_rule")
        verdicts = [obj[key]["satisfied"] for key in sections if key in obj]
        assert verdicts == [True] * (4 if verb == "entropy" else 1), path.name
        assert "null" not in out, path.name


def test_undecided_verdict_is_null_and_exits_0(monkeypatch, capsys):
    # so wide a slack leaves every verdict read off enclosures open
    monkeypatch.setattr(ucc.entropy, "TRANSCENDENTAL_SLACK", 1.0)
    code, out, err = run(capsys, "entropy", POWERSET3)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["lower_bound"]["satisfied"] is None
    assert obj["upper_bound"]["satisfied"] is None
    assert obj["chain_rule"]["satisfied"] is True  # false only on a contradiction
    assert obj["theorem"]["satisfied"] is True  # eps = 0: decided in integers
    code, out, _ = run(capsys, "fuzz", "--n", "5", "--count", "30",
                       "--seed", "7", "--entropy-checks")
    obj = json.loads(out)
    assert code == 0 and obj["violation_found"] is False
    assert obj["undecided"] == obj["theorem_checked"] > 0
    # psi enclosed this loosely leaves the theorem open at eps = 3/50
    monkeypatch.setattr(ucc.entropy, "_PSI_ENCLOSURE", ucc.Interval(0.0, 2.0))
    code, out, err = run(capsys, "check", NEAR_CLOSED)
    assert (code, err) == (0, "")
    assert json.loads(out)["theorem"]["satisfied"] is None
    monkeypatch.setattr(ucc.entropy, "_at_least_psi", lambda q: None)
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    obj = json.loads(out)
    assert code == 0 and obj["all_satisfied"] is True
    assert obj["undecided"] == obj["theorem_checked"] > 0


def test_certified_violation_exits_1(monkeypatch, capsys):
    # with psi moved to 1 the bound 1 - delta = 0.733 exceeds max freq 7/10
    monkeypatch.setattr(ucc.entropy, "_PSI_ENCLOSURE", ucc.Interval.point(1.0))
    code, out, err = run(capsys, "check", NEAR_CLOSED)
    assert code == 1
    assert json.loads(out)["theorem"]["satisfied"] is False
    assert err.startswith("violating family in .uc format:\n")


def test_enumerate_n3(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["families"] == 121
    assert obj["theorem_checked"] == 113
    assert obj["skipped_small"] == 8
    assert obj["min_max_freq"] == {"num": 1, "den": 2}
    assert obj["all_satisfied"] is True
    assert obj["undecided"] == 0


def test_fuzz_clean_run(capsys):
    code, out, _ = run(capsys, "fuzz", "--n", "5", "--count", "30",
                       "--seed", "7", "--entropy-checks")
    assert code == 0
    obj = json.loads(out)
    assert obj["violation_found"] is False
    assert obj["undecided"] == 0
    assert obj["theorem_checked"] + obj["skipped_small"] == 30
    assert obj["kinds"] == ["uniform", "closure-of-random", "noisy-uc"]
    assert 0.0 <= obj["max_epsilon_seen"] < 0.5


def test_fuzz_single_kind(capsys):
    code, out, _ = run(capsys, "fuzz", "--n", "5", "--count", "10",
                       "--seed", "7", "--kind", "uniform")
    assert code == 0
    obj = json.loads(out)
    assert obj["kinds"] == ["uniform"]


def test_fuzz_unknown_kind_names_the_kinds(capsys):
    code, out, err = run(capsys, "fuzz", "--n", "5", "--count", "10",
                         "--seed", "7", "--kind", "bogus")
    assert (code, out) == (2, "")
    assert err.endswith("argument --kind: invalid choice: 'bogus' (choose from "
                        "'uniform', 'closure-of-random', 'noisy-uc', 'all')\n")


def test_human_and_csv_formats(capsys):
    code, out, _ = run(capsys, "check", POWERSET3, "--format", "human")
    assert code == 0
    assert "family_size" in out
    assert "{" not in out
    code, out, _ = run(capsys, "check", POWERSET3, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("family_size,8") for line in lines)


def test_out_file_diverts_stdout(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", POWERSET3, "--out", str(dest))
    assert code == 0
    assert out == ""
    obj = json.loads(dest.read_text())
    assert obj["family_size"] == 8


def test_stdout_byte_identical_across_runs(capsys):
    goldens = [
        ("check", POWERSET3),
        ("entropy", TWO_SINGLETONS),
        ("fuzz", "--n", "5", "--count", "20", "--seed", "3"),
        ("analytic", "certify", "--theta", "0.80", "--eta", "0.01"),
        ("example", "--n", "1000"),
    ]
    for argv in goldens:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second, argv


def _pinned_data_runs():
    digests = {
        "chain4.uc": (
            "2082cf6b1ea877cca0af48b1317f95c2276104170e9123a480927ba9dc5edb84",
            "de788f7f53dd84e941b7edb29574f34c9c1d47ee80bfbc699612d14c43d44d04",
            "23e6e8513a6cc157770c80b174f0893c7c73cb72c702b75718095160fdb7f360",
            "826a0c85292c17676c27ea782b5d327c89f5976e7bad70d0d2be8833367bb401"),
        "near_closed.uc": (
            "6b74a15b4bb41982172382fe6364da807cff9071b0d895546ba2b51c03f500f4",
            "26891449e9bb715ea8ed55095c9d8e00ccee71f6da4b53b1fd49f4c936ff8e66",
            "242ec38b8eabc1fd135d98c9a23f88dc6b5260268958f7ec5ed45801130b45a1",
            "4c6ec372e0e947178ba8d8594a59dd518b4c767a27407529a78794168972fa06"),
        "powerset3.uc": (
            "c98be6d2618986c72801f3a100da5d93b0727c9ae4d0166f6a25b37236f4bf72",
            "8fe69d879d7f10dde4a74f6c169d9b6a266db8790754bcf7fdb88e7cb69f1f3a",
            "67c3871ab735fe5f73d1f33d7a13d9bf8da870c7bfee1b1bce333edc45266925",
            "c920b33169180145cb12a04ef42d7d05fadac2ceb939ec484c4be2c29b3bceab"),
        "powerset3_noempty.uc": (
            "89d58a97ea82f3030f3e0ca4a7dae397769665a58b6826877b93801b4967bfa4",
            "38405d0c4a3c145975d66bef27e1e813985fa4c90e77c938a4a7bcab61da9d55",
            "5b187437ff84276c23b25a82f961d38faa4a17412219f68b202bb6d346e921f7",
            "482baf1881e72b96a31cbd966e5a15c720142215e3c6067c1d7bd044a649fb3c"),
        "singleton.uc": (
            "05a5840a41c2a9ee98433274e8753ba37dafb0e8a512e153575c42f2eb98f996",
            "a4860a743899d47d91c893041a28794e1b3c90f98fa8637fc27333730b61c516",
            "98c2c2082a46390f1d58d0e3a9420b237ebeaa3fb9735c93c7c5df42d5519f36",
            "b67745408ee747488bb3068ae7a2527ccf6e9d6507f63405e5c7735079e4b618"),
        "two_singletons.uc": (
            "ad89141ff8cee19d500b12b15174d2863305f0aec25d95195d10375e937a3da0",
            "ff1fb81d55354038a0b7a143442fa9a2128649e505095cb7845777311c5c1eed",
            "9fd2cbb221a18b24b5517c358a9390d0ac98e1f06db8c47fb7e785673310940d",
            "d170bf07c519213da46687bf46c1664690dd325e3e9e24348ed0b4b7b21148f9"),
    }
    assert sorted(digests) == sorted(p.name for p in DATA_DIR.glob("*.uc"))
    for name, sums in digests.items():
        argvs = [(verb, name, "--format", fmt)
                 for verb in ("check", "entropy") for fmt in ("json", "human")]
        yield from ((argv, 0, digest) for argv, digest in zip(argvs, sums))


# sha256 of stdout and the exit code, pinned across commits: a refactor must
# not move a byte.  The certify digest covers the certificate's trace digest
# and its edge bounds, so it is re-pinned only when the certifier's box split
# (_split), the edge bounds or the certificate's fields change.
PINNED_RUNS = [
    *_pinned_data_runs(),
    (("analytic", "grid", "--grid", "101", "--format", "json"), 0,
     "4a1c130bfe88771cb0476a8ed9361b9280075693a77d5e1ccf19238f682da106"),
    (("analytic", "grid", "--grid", "101", "--format", "csv"), 0,
     "0cfb945132425a4b1486d75bd571881a50f83d52961aae42924f050452aa32c6"),
    (("analytic", "grid", "--grid", "101", "--format", "human"), 0,
     "50273ed76e36791a48c28abe5ce6204de48f6d8df3d5e3a4f655237b77c77f72"),
    (("analytic", "minimize"), 0,
     "4dbe5bb16867fc98c8bfba8ac192fb17eb1a87bc5889a38d85d96638675bb5d8"),
    (("analytic", "certify", "--theta", "0.7", "--eta", "0.01"), 0,
     "6ad67856059f81214d2598f8802789e9296c77d8de11b1afff86edd9028e18c1"),
    (("example", "--n", "1000"), 0,
     "ff16c996a54be7fcb0c998522209543d6d9322bea6b9a2fdabd7b13d44413ef0"),
    (("enumerate", "--n", "3"), 0,
     "e749f224c195772ec8be5b713ce30039af4acff35ff59869e8ccc07f64c2231b"),
    (("fuzz", "--n", "6", "--count", "300", "--seed", "3", "--entropy-checks"), 0,
     "42d7733d06572eebb2e1aa67b404cb14402036a1a286b2d2badbe18ebf70b4a4"),
    (("fuzz", "--n", "5", "--count", "40", "--seed", "9", "--kind", "noisy-uc",
      "--entropy-checks"), 0,
     "f1b9203977baf209b90a7b1bf7dd24ff410b8b8fa06fc49ded8044f3d8d8db2c"),
    # fewer families than kinds: only the last kind draws
    (("fuzz", "--n", "4", "--seed", "1", "--count", "1"), 0,
     "75ade6a971bfee06036ba04903f12d5096490ba9b9e62947d844205b557e3631"),
    (("fuzz", "--n", "4", "--seed", "1", "--count", "2"), 0,
     "78a6acfed2578542b065f5361e4eac17d926b360c88f572d3bc20320944107d7"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_RUNS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_RUNS])
def test_stdout_pinned_across_commits(argv, code, digest, capsys):
    argv = [str(DATA_DIR / a) if a.endswith(".uc") else a for a in argv]
    got_code, out, _ = run(capsys, *argv)
    assert (got_code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest)
    if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        strict_json(out)


def _key_paths(obj, prefix=""):
    """Leaf key paths of a JSON report; list items share one ``[]`` step."""
    if isinstance(obj, dict):
        return {p for key, value in obj.items()
                for p in _key_paths(value, f"{prefix}.{key}" if prefix else key)}
    if isinstance(obj, list):
        return {p for item in obj for p in _key_paths(item, prefix + "[]")} or {prefix + "[]"}
    return {prefix}


# every verb's report keys, sorted: a record change shows up here as a
# schema diff
REPORT_SCHEMAS = {
    "check": (("check", NEAR_CLOSED), [
        "closure_fraction_unordered.den", "closure_fraction_unordered.num",
        "delta", "epsilon.den", "epsilon.num", "family_size", "max_freq.den",
        "max_freq.num", "max_freq_element", "psi", "psi_minus_delta",
        "theorem.applicable", "theorem.satisfied", "union_closed", "universe"]),
    "entropy": (("entropy", NEAR_CLOSED), [
        "chain_rule.applicable", "chain_rule.check",
        "chain_rule.inputs.chain_sum_bits", "chain_rule.inputs.family_size",
        "chain_rule.inputs.identity_margin_bits",
        "chain_rule.inputs.universe_size", "chain_rule.lhs_bits",
        "chain_rule.margin_bits", "chain_rule.rhs_bits",
        "chain_rule.satisfied", "delta", "entropy_union_bits", "epsilon.den",
        "epsilon.num", "family_size", "lower_bound.applicable",
        "lower_bound.check", "lower_bound.inputs.entropy_per_draw_bits",
        "lower_bound.inputs.family_size", "lower_bound.inputs.half_inv_phi",
        "lower_bound.inputs.p_min_zero", "lower_bound.lhs_bits",
        "lower_bound.margin_bits", "lower_bound.rhs_bits",
        "lower_bound.satisfied", "max_freq.den", "max_freq.num",
        "max_freq_element", "psi", "psi_minus_delta", "theorem.applicable",
        "theorem.satisfied", "union_closed", "universe",
        "upper_bound.applicable", "upper_bound.check",
        "upper_bound.inputs.decomposition_bits", "upper_bound.inputs.epsilon",
        "upper_bound.inputs.family_size", "upper_bound.inputs.h_epsilon_bits",
        "upper_bound.inputs.log2_family_size", "upper_bound.lhs_bits",
        "upper_bound.margin_bits", "upper_bound.rhs_bits",
        "upper_bound.satisfied"]),
    "minimize": (("analytic", "minimize", "--grid", "200"), [
        "deviation_from_phi", "grid_points", "refine_tol", "value",
        "value_minus_min", "x_star"]),
    "grid": (("analytic", "grid", "--grid", "101"), [
        "argmin[]", "argmin_margin", "grid_points", "min_margin", "phi"]),
    "certify": (("analytic", "certify", "--theta", "0.95", "--eta", "0.01"), [
        "accepted_boxes", "boundary.corner", "boundary.delta",
        "boundary.high_strip", "boundary.low_strip", "boxes_processed", "eta",
        "indeterminate_boxes", "max_depth_used", "region[][]",
        "status", "threshold", "trace_digest", "verified",
        "violation_boxes[].f_upper", "violation_boxes[].x_hi",
        "violation_boxes[].x_lo", "violation_boxes[].y_hi",
        "violation_boxes[].y_lo", "worst_box.f_upper", "worst_box.x_hi",
        "worst_box.x_lo", "worst_box.y_hi", "worst_box.y_lo"]),
    "example": (("example", "--n", "10", "--k", "3", "--m", "4"), [
        "example.closure_deficit", "example.delta", "example.k",
        "example.log2_f1", "example.log2_f2",
        "example.log2_inv_closure_deficit", "example.m",
        "example.max_freq_exact", "example.n", "example.psi_minus_delta",
        "example.size_ratio"]),
    "enumerate": (("enumerate", "--n", "2"), [
        "all_satisfied", "families", "min_max_freq.den", "min_max_freq.num",
        "n", "psi", "skipped_small", "theorem_checked", "undecided"]),
    "fuzz": (("fuzz", "--n", "4", "--count", "6", "--seed", "1"), [
        "count", "kinds[]", "max_epsilon_seen", "n", "rho", "seed", "size",
        "skipped_pair_cap", "skipped_small", "theorem_applicable",
        "theorem_checked", "undecided", "violation_found"]),
}


@pytest.mark.parametrize("verb", REPORT_SCHEMAS)
def test_report_schema_pinned(verb, capsys):
    argv, schema = REPORT_SCHEMAS[verb]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert sorted(_key_paths(json.loads(out))) == sorted(schema)


@pytest.mark.parametrize("verb", REPORT_SCHEMAS)
def test_format_and_out_mean_the_same_on_every_verb(verb, tmp_path, capsys):
    # --format csv prints the report's key,value rows, and --out gets exactly
    # the bytes stdout would, whatever the path's suffix
    argv, _ = REPORT_SCHEMAS[verb]
    dest = tmp_path / "r.csv"
    for fmt in ("json", "human", "csv"):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert out.startswith("key,value\n") == (fmt == "csv")
        assert run(capsys, *argv, "--format", fmt, "--out", str(dest)) == (0, "", "")
        assert dest.read_bytes() == out.encode("utf-8")


def test_non_finite_report_value_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # JSON has no Infinity or NaN: such a value fails the run before --out
    # is opened, instead of printing a report strict parsers reject
    monkeypatch.setattr(
        ucc.cli, "corollary_grid_check", raising=False,
        value=lambda grid_points: ucc.GridCheck(
            -math.inf, (0.5, 0.5), math.nan, grid_points))
    dest = tmp_path / "r.json"
    for extra in ((), ("--out", str(dest))):
        code, out, err = run(capsys, "analytic", "grid", *extra)
        assert (code, out) == (2, "")
        assert err == "ucc: Out of range float values are not JSON compliant\n"
    assert not dest.exists()


def test_usage_errors(capsys):
    assert run(capsys, "check")[0] == 2                       # missing operand
    assert run(capsys, "frobnicate", POWERSET3)[0] == 2       # unknown verb
    assert run(capsys, "check", POWERSET3, "--format", "xml")[0] == 2
    assert run(capsys, "check", POWERSET3, "--threads", "0")[0] == 2  # unknown option
    assert run(capsys, "entropy", POWERSET3, "--pair-cap", "7")[0] == 2
    assert run(capsys, "analytic")[0] == 2                    # missing action
    code, out, err = run(capsys, "analytic", "certify", "--strip-points", "-1")
    assert code == 2 and out == "" and "unrecognized arguments: --strip-points" in err
    code, out, err = run(capsys, "analytic", "certify", "--depth", "5")
    assert code == 2 and out == "" and "unrecognized arguments: --depth" in err
    code, out, err = run(capsys, "enumerate", "--n", "3", "--exclude-empty")
    assert code == 2 and out == "" and "unrecognized arguments: --exclude-empty" in err
    for count in ("0", "-5"):
        assert run(capsys, "fuzz", "--n", "4", "--seed", "1", "--count", count) == (
            2, "", "ucc: size and count must be positive\n")
    assert run(capsys)[0] == 2


def test_console_script_smoke():
    # the installed console script when present, else the same entry point
    # through ``python -m ucc`` on the source tree
    command = [shutil.which("ucc")] if shutil.which("ucc") else [sys.executable, "-m", "ucc"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([*command, "check", POWERSET3], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["union_closed"] is True
