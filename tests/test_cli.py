"""CLI behavior: exit codes, JSON shapes, --out, determinism."""

import argparse
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
    # union-closed: delta is 0, so the bound ucc.PSI - delta is psi itself
    assert obj["delta"] == 0.0


def test_check_vacuous_family(capsys):
    code, out, _ = run(capsys, "check", TWO_SINGLETONS)
    assert code == 0
    obj = json.loads(out)
    assert obj["union_closed"] is False
    assert obj["epsilon"] == {"num": 2, "den": 9}
    assert obj["theorem"]["applicable"] is False
    assert obj["theorem"]["satisfied"] is True


@pytest.mark.parametrize("verb", ["check", "entropy"])
def test_empty_set_family_is_inapplicable(verb, tmp_path, capsys):
    # {empty set} is union closed with max frequency 0; check_theorem
    # decides it, as it decides every family size
    p = tmp_path / "empty_set.uc"
    p.write_text("n=2\n00\n")
    code, out, err = run(capsys, verb, str(p))
    assert (code, err) == (0, "")
    assert '"theorem":{"applicable":false,"satisfied":true}' in out
    assert json.loads(out)["max_freq"] == {"num": 0, "den": 1}


def test_check_skips_a_byte_order_mark(tmp_path, capsys):
    # a .uc file saved with a UTF-8 BOM reads as the same family
    p = tmp_path / "bom.uc"
    p.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(POWERSET3).read_bytes())
    want = run(capsys, "check", POWERSET3)
    assert want[0] == 0
    assert run(capsys, "check", str(p)) == want


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
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("ucc: ") and err.count("\n") == 1
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
        assert set(sec) == {"rhs_bits", "margin_bits", "satisfied", "applicable"}
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
    assert abs(obj["x_star"] - ucc.PHI) <= 1e-6
    assert abs(obj["value"] - (1.0 + ucc.PHI)) <= 1e-9


def test_grid_report(capsys):
    code, out, _ = run(capsys, "analytic", "grid", "--grid", "101")
    assert code == 0
    obj = json.loads(out)
    assert obj["grid_points"] == 101
    assert obj["min_margin"] >= -1e-12


def test_grid_sweeps_once(monkeypatch, tmp_path, capsys):
    from ucc.analytic import scalars

    sweeps: list[int] = []
    blocks = scalars._margin_blocks

    def counting(*args, **kwargs):
        sweeps.append(1)
        return blocks(*args, **kwargs)

    # one sweep per run, to stdout or to --out
    monkeypatch.setattr(scalars, "_margin_blocks", counting)
    code, out, _ = run(capsys, "analytic", "grid", "--grid", "101")
    assert code == 0 and len(sweeps) == 1
    assert out.count("\n") == 1 and strict_json(out)["grid_points"] == 101
    dest = tmp_path / "sweep.json"
    assert run(capsys, "analytic", "grid", "--grid", "101",
               "--out", str(dest)) == (0, "", "")
    assert len(sweeps) == 2 and dest.read_text() == out


def test_grid_keeps_the_grid_floor(tmp_path, capsys):
    dest = tmp_path / "coarse.json"
    for extra in (("--out", str(dest)), ()):
        code, out, err = run(capsys, "analytic", "grid", "--grid", "50", *extra)
        assert (code, out) == (2, "")
        assert err == "ucc: grid_points must be at least 100\n"
    assert not dest.exists()


def test_grid_points_capped_before_the_sweep(monkeypatch, capsys):
    # 4096^2 = 2^24 cells, the pair-union histogram's budget; one point
    # more is refused before the grid is allocated
    from ucc.analytic import scalars

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(scalars, "_margin_blocks", no_sweep)
    code, out, err = run(capsys, "analytic", "grid", "--grid", "4097")
    assert (code, out) == (2, "")
    assert err == "ucc: grid of 4097 points exceeds cap of 4096 points\n"


@pytest.mark.parametrize("n", [131_073, 10_000_000])
def test_example_n_capped_before_any_binomial(monkeypatch, capsys, n):
    # slice_stats at 2^17 already takes about 4 s; one element more is
    # refused before the first binomial
    from ucc import generators

    def no_binomial(*args):
        raise AssertionError("a binomial was computed")

    monkeypatch.setattr(generators.math, "comb", no_binomial)
    code, out, err = run(capsys, "example", "--n", str(n))
    assert (code, out) == (2, "")
    assert err == f"ucc: slice example of n={n} exceeds cap of n=131072\n"


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


def test_certify_exits_0_on_both_sides_of_the_minimum(capsys):
    # HALF_INV_PHI lies above 1/(2 phi): the point refutes, with no box
    code, out, err = run(capsys, "analytic", "certify", "--theta",
                         repr(ucc.HALF_INV_PHI))
    obj = json.loads(out)
    assert (code, err) == (0, "")
    assert (obj["status"], obj["boxes_processed"]) == ("refuted", 0)
    assert obj["trace_digest"] == hashlib.sha256(b"").hexdigest()
    # the float below it is under the minimum: the walk ends undecided
    code, out, err = run(capsys, "analytic", "certify", "--theta",
                         repr(math.nextafter(ucc.HALF_INV_PHI, 0.0)))
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "indeterminate"


def test_certify_low_edge_bound_is_indeterminate(capsys):
    # the interior verifies, but the edge bounds at eta = 0.05 stay near 0.69
    code, out, err = run(capsys, "analytic", "certify", "--theta", "0.809016",
                         "--eta", "0.05")
    obj = json.loads(out)
    assert (code, err) == (0, "")
    assert obj["status"] == "indeterminate"
    assert obj["violation_boxes"] == [] and obj["worst_box"] is None


def test_certify_at_the_eta_floor(capsys):
    # the first rungs of the edge ladder have g(1-delta) within the slack of
    # 0; they are skipped, so the run ends in one report, not a traceback.
    # A budget cut stops the walk at no box: worst_box is null.
    for budget in ("1", "2", "100", "1000"):
        code, out, err = run(capsys, "analytic", "certify", "--theta", "0.7",
                             "--eta", "1.2e-16", "--budget", budget)
        assert (code, err) == (0, "")
        assert out.count("\n") == 1
        obj = strict_json(out)
        assert obj["status"] == "budget_exhausted"
        assert obj["worst_box"] is None, budget


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


def test_example_n1000(capsys):
    code, out, _ = run(capsys, "example", "--n", "1000")
    assert code == 0
    obj = json.loads(out)["example"]
    assert (obj["n"], obj["k"], obj["m"]) == (1000, 482, 619)
    assert obj["max_freq_exact"] == 0.4820000000002667
    assert obj["closure_deficit"] == 1.5150133934948656e-48
    assert obj["log2_inv_closure_deficit"] == pytest.approx(158.853, abs=1e-3)
    assert ucc.PSI - obj["delta"] <= obj["max_freq_exact"]
    # |F2| / |F1| below 1e-6, in log space where it cannot underflow
    assert obj["log2_f2"] - obj["log2_f1"] < math.log2(1e-6)


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


def _settable_arguments(parser, verb=""):
    """Every argument that a verb's parser accepts, positionals included,
    as ``"<verb> <argument>"``, walking the subparsers; -h is left out."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += _settable_arguments(sub, f"{verb} {name}".strip())
        elif not isinstance(action, argparse._HelpAction):
            found.append(f"{verb} {(action.option_strings or [action.dest])[-1]}")
    return found


def test_settable_arguments_pinned():
    # a knob added or dropped shows up here as a diff
    settable = sorted(_settable_arguments(_build_parser()))
    assert len(settable) == 22
    assert settable == [
        "analytic certify --budget", "analytic certify --eta",
        "analytic certify --out", "analytic certify --theta",
        "analytic grid --grid", "analytic grid --out",
        "analytic minimize --out",
        "check --out", "check file",
        "entropy --out", "entropy file",
        "enumerate --n", "enumerate --out",
        "example --n", "example --out",
        "fuzz --count", "fuzz --entropy-checks", "fuzz --kind",
        "fuzz --n", "fuzz --out", "fuzz --seed", "fuzz --size",
    ]


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


def test_certified_violation_exits_1(monkeypatch, tmp_path, capsys):
    # with psi moved to 1, in the enclosure and in the integer test alike,
    # a family with max freq below 1 - delta violates the theorem (on
    # near_closed.uc the bound 1 - delta = 0.733 exceeds max freq 7/10).
    # Every family verb then exits 1 and dumps that family to stderr, also
    # when the report goes to --out
    monkeypatch.setattr(ucc.entropy, "_PSI_ENCLOSURE", ucc.Interval.point(1.0))
    monkeypatch.setattr(ucc.entropy, "_at_least_psi", lambda q: q >= 1)
    runs = [  # each verb and the report key that records the violation
        (("check", NEAR_CLOSED), lambda obj: obj["theorem"]["satisfied"]),
        (("entropy", NEAR_CLOSED), lambda obj: obj["theorem"]["satisfied"]),
        (("enumerate", "--n", "2"), lambda obj: obj["all_satisfied"]),
        (("fuzz", "--n", "5", "--count", "30", "--seed", "7", "--entropy-checks"),
         lambda obj: not obj["violation_found"]),
    ]
    dest = tmp_path / "report.json"
    for argv, verdict in runs:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert verdict(strict_json(out)) is False, argv
        header, _, dump = err.partition("\n")
        assert header == "violating family in .uc format:", argv
        family = ucc.parse_family(dump)
        assert ucc.check_theorem(family).satisfied is False, argv
        if argv[1] == NEAR_CLOSED:
            assert family == ucc.load_family(NEAR_CLOSED)
        assert run(capsys, *argv, "--out", str(dest)) == (1, "", err), argv
        assert dest.read_text() == out, argv


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
    assert obj["kind"] == "all"
    assert 0.0 <= obj["max_epsilon_seen"] < 0.5


def test_fuzz_single_kind(capsys):
    code, out, _ = run(capsys, "fuzz", "--n", "5", "--count", "10",
                       "--seed", "7", "--kind", "uniform")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "uniform"


def test_fuzz_unknown_kind_names_the_kinds(capsys):
    # random_families is the one place that checks the kind
    code, out, err = run(capsys, "fuzz", "--n", "5", "--count", "10",
                         "--seed", "7", "--kind", "bogus")
    assert (code, out) == (2, "")
    assert err == ("ucc: kind must be one of ('uniform', 'closure-of-random', "
                   "'noisy-uc') or 'all', got 'bogus'\n")


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
            "4835ce466dae11f145617996274fb947c1348afe3a7d93d24f9c80bf523ba6eb",
            "3a30fd4d4f3be04049ba427f993e71d359578415b41768ea0bce93c0f25cc155"),
        "near_closed.uc": (
            "df82edcd24239eb5638776a449e5b2b604a1e1aa2487a0d688f6c9b080fb478c",
            "2f87a621ccc71ac27321de451b137cb10ad2cbd1f79cae205a0290a4eac2b71c"),
        "powerset3.uc": (
            "87a8a137604525d6623f83e53de13abc5e42af1e8e31388b3d4326324ddcc5c0",
            "7e015c0b8c202a36935fc5e1948940ee76ee04dbe2d934f0fc70441aba0a2ff6"),
        "powerset3_noempty.uc": (
            "04842a746f3e978a54dd5483c3ee328a4b5ea6799a91e53e6ae5610f327cbf93",
            "f0dd3394ea93a4734279448e68570bb6ebc313d2daf6aa6e73d6ed2667ca05c0"),
        "singleton.uc": (
            "1fb711c912ba41cbb20c296f2f882f5265534a551be67c8489084accc99a535e",
            "f93bf188aaf0545577f2c8361f75652a3903f259483889d0550114926192ae4d"),
        "two_singletons.uc": (
            "f27a9f53a297193b112fa883244d19d696cb340466d77529e5bf17236e400820",
            "ae41582bfdfde38d0aa2a87177366e5a4b54e5581aa9e81578cf79ca4b045962"),
    }
    assert sorted(digests) == sorted(p.name for p in DATA_DIR.glob("*.uc"))
    for name, sums in digests.items():
        yield from (((verb, name), 0, digest)
                    for verb, digest in zip(("check", "entropy"), sums))


# sha256 of stdout and the exit code, pinned across commits: a refactor must
# not move a byte.  The certify digest covers the certificate's trace digest
# (the sha256 of its preorder trail) and its edge bounds, so it is re-pinned
# only when the certifier's walk order, its box split (_split), the edge
# bounds or the certificate's fields change.
PINNED_RUNS = [
    *_pinned_data_runs(),
    (("analytic", "grid", "--grid", "101"), 0,
     "88f55111cc1b1ed78a5cd6e4e47ca0dcc5fc69f672d4377b1d6627f0c33dba2c"),
    (("analytic", "minimize"), 0,
     "d30f3421943d7cd16dfe72c4bfb3835247e1d41cbb93db8e8eb68073454621d1"),
    (("analytic", "certify", "--theta", "0.7", "--eta", "0.01"), 0,
     "1e6eeaef99ecf3463dcb234b3bf4c66783d47628091424b227d26ba99d0f4754"),
    (("example", "--n", "1000"), 0,
     "65aabddf54f09252fb468cc4bf4f5e4acdab0a3de126c991fdce05c7e4d18afb"),
    (("enumerate", "--n", "3"), 0,
     "b185b918329bd84b475fb61921013e1fb1dec72bcffe768e8f1bfd580fcd5d57"),
    (("fuzz", "--n", "6", "--count", "300", "--seed", "3", "--entropy-checks"), 0,
     "d9faef02a19f680a65ee5e80720f548c50e9b977235df410f7f0e42382fd48e9"),
    (("fuzz", "--n", "5", "--count", "40", "--seed", "9", "--kind", "noisy-uc",
      "--entropy-checks"), 0,
     "e064534e4523330525c7066747f1db5b50bb686064cdb3b79d32f2ea171c4644"),
    # fewer families than kinds: only the last kind draws
    (("fuzz", "--n", "4", "--seed", "1", "--count", "1"), 0,
     "9d43604ad70ad2eaf0213e406a10f38a25e606c8c431baed64852d62e667ee7a"),
    (("fuzz", "--n", "4", "--seed", "1", "--count", "2"), 0,
     "08b7139a84c91ca933f8fd5c0de6b342a5344fa54e9389125b74ced70c32e254"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_RUNS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_RUNS])
def test_stdout_pinned_across_commits(argv, code, digest, capsys):
    argv = [str(DATA_DIR / a) if a.endswith(".uc") else a for a in argv]
    got_code, out, _ = run(capsys, *argv)
    assert (got_code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest)
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
        "max_freq.num", "max_freq_element", "theorem.applicable", "theorem.satisfied", "union_closed", "universe"]),
    "entropy": (("entropy", NEAR_CLOSED), [
        "chain_rule.applicable", "chain_rule.margin_bits", "chain_rule.rhs_bits",
        "chain_rule.satisfied", "delta", "entropy_union_bits", "epsilon.den",
        "epsilon.num", "family_size", "lower_bound.applicable",
        "lower_bound.margin_bits", "lower_bound.rhs_bits",
        "lower_bound.satisfied", "max_freq.den", "max_freq.num",
        "max_freq_element", "theorem.applicable",
        "theorem.satisfied", "union_closed", "universe",
        "upper_bound.applicable", "upper_bound.margin_bits",
        "upper_bound.rhs_bits", "upper_bound.satisfied"]),
    "minimize": (("analytic", "minimize"), ["value", "x_star"]),
    "grid": (("analytic", "grid", "--grid", "101"), [
        "argmin[]", "argmin_margin", "grid_points", "min_margin"]),
    "certify": (("analytic", "certify", "--theta", "0.95", "--eta", "0.01"), [
        "accepted_boxes", "boundary.corner", "boundary.delta",
        "boundary.high_strip", "boundary.low_strip", "boxes_processed", "eta",
        "max_depth_used",
        "status", "threshold", "trace_digest", "verified",
        "violation_boxes[].f_upper", "violation_boxes[].x_hi",
        "violation_boxes[].x_lo", "violation_boxes[].y_hi",
        "violation_boxes[].y_lo", "worst_box.f_upper", "worst_box.x_hi",
        "worst_box.x_lo", "worst_box.y_hi", "worst_box.y_lo"]),
    "example": (("example", "--n", "1000"), [
        "example.closure_deficit", "example.delta", "example.k",
        "example.log2_f1", "example.log2_f2",
        "example.log2_inv_closure_deficit", "example.m",
        "example.max_freq_exact", "example.n"]),
    "enumerate": (("enumerate", "--n", "2"), [
        "all_satisfied", "families", "min_max_freq.den", "min_max_freq.num",
        "n", "skipped_small", "theorem_checked", "undecided"]),
    "fuzz": (("fuzz", "--n", "4", "--count", "6", "--seed", "1"), [
        "count", "kind", "max_epsilon_seen", "n", "seed", "size",
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
def test_out_gets_the_stdout_bytes_on_every_verb(verb, tmp_path, capsys):
    # JSON is the one report form: --out gets exactly the bytes stdout
    # would, whatever the path's suffix
    argv, _ = REPORT_SCHEMAS[verb]
    dest = tmp_path / "r.csv"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    strict_json(out)
    assert run(capsys, *argv, "--out", str(dest)) == (0, "", "")
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
    code, out, err = run(capsys, "check", POWERSET3, "--format", "json")
    assert code == 2 and out == "" and "unrecognized arguments: --format" in err
    assert run(capsys, "check", POWERSET3, "--threads", "0")[0] == 2  # unknown option
    assert run(capsys, "entropy", POWERSET3, "--pair-cap", "7")[0] == 2
    assert run(capsys, "analytic")[0] == 2                    # missing action
    code, out, err = run(capsys, "analytic", "certify", "--strip-points", "-1")
    assert code == 2 and out == "" and "unrecognized arguments: --strip-points" in err
    code, out, err = run(capsys, "analytic", "certify", "--depth", "5")
    assert code == 2 and out == "" and "unrecognized arguments: --depth" in err
    code, out, err = run(capsys, "enumerate", "--n", "3", "--exclude-empty")
    assert code == 2 and out == "" and "unrecognized arguments: --exclude-empty" in err
    code, out, err = run(capsys, "fuzz", "--n", "4", "--count", "6", "--seed", "1",
                         "--rho", "0.3")
    assert code == 2 and out == "" and "unrecognized arguments: --rho" in err
    code, out, err = run(capsys, "analytic", "minimize", "--grid", "200")
    assert code == 2 and out == "" and "unrecognized arguments: --grid" in err
    code, out, err = run(capsys, "example", "--n", "1000", "--k", "3")
    assert code == 2 and out == "" and "unrecognized arguments: --k" in err
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
