"""The three benchmark workloads: their inputs, their verbs and their oracles.

Every verb is a ``ucc`` command line run in process through
``ucc.cli.run_cli``.  Each verb carries a check that judges the verdict it
printed against a reference that does not come from the code under test:
closed forms, a numpy pair oracle, and published counts.  A check returns
a list of error strings; an empty list means the verdict is right.

The benchmark seed reaches the program only through generated inputs: the
random n=16 family (a SplitMix64 stream derived from the seed, implemented
here so that a change to ``ucc.rng`` cannot change the inputs) and the
``--seed`` of both fuzz verbs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

PHI = (math.sqrt(5.0) - 1.0) / 2.0
PSI = (3.0 - math.sqrt(5.0)) / 2.0

POWERSET_N = 11           # power set of [11]: 2048 sets, dense
RANDOM_N = 16             # 2048 distinct random masks over [16]: sparse
RANDOM_SIZE = 2048
ENTROPY_TOL = 1e-9

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    """Endless SplitMix64 stream (Steele, Lea and Flood 2014)."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def uc_text(n: int, masks: list[int]) -> str:
    rows = ("".join("1" if m >> j & 1 else "0" for j in range(n)) for m in masks)
    return f"n={n}\n" + "".join(row + "\n" for row in rows)


@dataclass(frozen=True)
class Verb:
    """One CLI invocation of a pass; ``part`` names the metric it feeds."""

    label: str
    argv: tuple[str, ...]
    part: str | None
    check: Callable[[int, dict[str, Any], list[tuple[str, str, Any]]], list[str]]


@dataclass
class Inputs:
    files: dict[str, Path] = field(default_factory=dict)
    sha256: dict[str, str] = field(default_factory=dict)
    oracle: dict[str, Any] = field(default_factory=dict)


# -- shared checks ------------------------------------------------------------

def _frac(obj: dict[str, int]) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _expect(errors: list[str], ok: bool, what: str) -> None:
    if not ok:
        errors.append(what)


def _rc_ok(errors: list[str], rc: int) -> None:
    _expect(errors, rc == 0, f"exit code {rc}, expected 0")


def _bounds_hold(errors: list[str], rep: dict[str, Any]) -> None:
    for key in ("lower_bound", "upper_bound", "chain_rule"):
        _expect(errors, rep[key]["satisfied"] is True, f"{key} not satisfied")
    _expect(errors, rep["chain_rule"]["applicable"] is True, "chain rule inapplicable")
    _expect(errors, rep["lower_bound"]["applicable"] is True, "lower bound inapplicable")


def _notes_of(notes, name: str, key: str) -> list[Any]:
    return [v for n, k, v in notes if n == name and k == key]


def no_inputs(seed: int, out_dir: Path) -> Inputs:
    return Inputs()


# -- certify --------------------------------------------------------------------

def _check_verified(rc, rep, notes):
    errors: list[str] = []
    _rc_ok(errors, rc)
    _expect(errors, rep.get("status") == "verified" and rep.get("verified") is True,
            f"status {rep.get('status')!r}, expected 'verified'")
    _expect(errors, not rep.get("violation_boxes"), "violation boxes on a verified run")
    return errors


def _check_refuted(rc, rep, notes):
    errors: list[str] = []
    _rc_ok(errors, rc)  # theta above 1/(2 phi) is a true refutation, exit 0
    _expect(errors, rep.get("status") == "refuted",
            f"status {rep.get('status')!r}, expected 'refuted'")
    boxes = rep.get("violation_boxes") or []
    _expect(errors, bool(boxes), "no violation boxes")
    for box in boxes:
        cx = 0.5 * (box["x_lo"] + box["x_hi"])
        cy = 0.5 * (box["y_lo"] + box["y_hi"])
        _expect(errors, abs(cx - PHI) <= 1e-2 and abs(cy - PHI) <= 1e-2,
                f"violation box centre ({cx}, {cy}) not within 1e-2 of (phi, phi)")
        _expect(errors, box["f_upper"] < 0.81, "violation box f_upper >= theta")
    return errors


def _check_minimize(rc, rep, notes):
    errors: list[str] = []
    _rc_ok(errors, rc)
    _expect(errors, abs(rep["x_star"] - PHI) <= 1e-6, f"x_star {rep['x_star']} not at phi")
    _expect(errors, abs(rep["value"] - (1.0 + PHI)) <= 1e-9,
            f"diagonal minimum {rep['value']} != 1 + phi")
    return errors


def _check_grid(rc, rep, notes):
    errors: list[str] = []
    _rc_ok(errors, rc)
    _expect(errors, rep["min_margin"] >= -1e-12, f"negative margin {rep['min_margin']}")
    ax, ay = rep["argmin"]
    _expect(errors, abs(ax - PHI) <= 1e-2 and abs(ay - PHI) <= 1e-2,
            f"grid argmin ({ax}, {ay}) not near (phi, phi)")
    return errors


def certify_verbs(seed: int, inputs: Inputs) -> list[Verb]:
    return [
        Verb("certify theta=0.809016", ("analytic", "certify", "--theta", "0.809016",
                                         "--eta", "1e-4"), "part1_s", _check_verified),
        Verb("certify theta=0.81", ("analytic", "certify", "--theta", "0.81",
                                     "--eta", "1e-4"), "part2_s", _check_refuted),
        Verb("minimize", ("analytic", "minimize"), "part3_s", _check_minimize),
        Verb("grid 1001", ("analytic", "grid", "--grid", "1001"), "part3_s", _check_grid),
    ]


# -- families -------------------------------------------------------------------

def random_masks(seed: int, n: int = RANDOM_N, size: int = RANDOM_SIZE) -> list[int]:
    """``size`` distinct masks over [n], first-come from a seeded stream."""
    stream = splitmix64(seed ^ 0x5543432D42454E43)  # fixed salt: "UCC-BENC"
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < size:
        mask = next(stream) >> (64 - n)
        if mask not in seen:
            seen.add(mask)
            out.append(mask)
    return sorted(out)


def pair_oracle(n: int, masks: list[int]) -> dict[str, Any]:
    """Exact pair statistics by numpy outer OR and bincount.

    Rows are taken in blocks so that the oracle's own peak memory stays far
    below the program's and does not set ``peak_rss_mb``.
    """
    arr = np.asarray(masks, dtype=np.int64)
    size = len(masks)
    hist = np.zeros(1 << n, dtype=np.int64)
    for lo in range(0, size, 128):
        block = np.bitwise_or.outer(arr[lo:lo + 128], arr).ravel()
        hist += np.bincount(block, minlength=1 << n)
    hits = int(hist[arr].sum())
    nz = hist[hist > 0].astype(np.float64)
    total = float(size * size)
    entropy = math.log2(total) - float(np.sum(nz * np.log2(nz))) / total
    bits = (arr[:, None] >> np.arange(n)) & 1
    return {
        "size": size,
        "closure": Fraction(hits, size * size),
        "closure_unordered": Fraction(hits + size, size * (size + 1)),
        "union_support": int(np.count_nonzero(hist)),
        "entropy_bits": entropy,
        "max_freq": Fraction(int(bits.sum(axis=0).max()), size),
    }


def families_inputs(seed: int, out_dir: Path) -> Inputs:
    inputs = Inputs()
    texts = {
        "powerset11.uc": uc_text(POWERSET_N, list(range(1 << POWERSET_N))),
        "random16.uc": uc_text(RANDOM_N, random_masks(seed)),
    }
    for name, text in texts.items():
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        inputs.files[name] = path
        inputs.sha256[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return inputs


def families_oracle(seed: int, inputs: Inputs) -> None:
    """Reference statistics, computed once per run outside any timing."""
    size = 1 << POWERSET_N
    inputs.oracle["powerset11.uc"] = {
        "size": size,
        "closure": Fraction(1),
        "closure_unordered": Fraction(1),
        "union_support": size,
        # each union bit is 1 with probability 3/4, independently
        "entropy_bits": POWERSET_N * binary_entropy(0.25),
        "max_freq": Fraction(1, 2),
    }
    inputs.oracle["random16.uc"] = pair_oracle(RANDOM_N, random_masks(seed))


def _family_checks(errors: list[str], rep: dict[str, Any], ref: dict[str, Any]) -> None:
    eps = _frac(rep["epsilon"])
    _expect(errors, rep["family_size"] == ref["size"], "family size")
    _expect(errors, 1 - eps == ref["closure"],
            f"closure fraction {1 - eps} != oracle {ref['closure']}")
    _expect(errors, rep["union_closed"] == (ref["closure"] == 1), "union_closed flag")
    _expect(errors, _frac(rep["max_freq"]) == ref["max_freq"],
            f"max frequency {_frac(rep['max_freq'])} != oracle {ref['max_freq']}")
    _expect(errors, rep["theorem"]["satisfied"] is True, "theorem not satisfied")


def _check_family(name: str, inputs: Inputs):
    def check(rc, rep, notes):
        ref = inputs.oracle[name]
        errors: list[str] = []
        _rc_ok(errors, rc)
        _family_checks(errors, rep, ref)
        _expect(errors, _frac(rep["closure_fraction_unordered"]) == ref["closure_unordered"],
                "unordered closure fraction != oracle")
        return errors
    return check


def _entropy_family(name: str, inputs: Inputs):
    def check(rc, rep, notes):
        ref = inputs.oracle[name]
        errors: list[str] = []
        _rc_ok(errors, rc)
        _family_checks(errors, rep, ref)
        _bounds_hold(errors, rep)
        _expect(errors, abs(rep["entropy_union_bits"] - ref["entropy_bits"]) <= ENTROPY_TOL,
                f"union entropy {rep['entropy_union_bits']} != oracle {ref['entropy_bits']}")
        support = _notes_of(notes, "entropy.union_distribution", "union_support")
        # the support is visible only to the traced pass, through the span note
        _expect(errors, all(s == ref["union_support"] for s in support),
                f"union support {support} != oracle {ref['union_support']}")
        return errors
    return check


def families_verbs(seed: int, inputs: Inputs) -> list[Verb]:
    ps, rnd = inputs.files["powerset11.uc"], inputs.files["random16.uc"]
    return [
        Verb("check powerset11", ("check", str(ps)), "part1_s",
             _check_family("powerset11.uc", inputs)),
        Verb("check random16", ("check", str(rnd)), "part1_s",
             _check_family("random16.uc", inputs)),
        Verb("entropy powerset11", ("entropy", str(ps)), "part2_s",
             _entropy_family("powerset11.uc", inputs)),
        Verb("entropy random16", ("entropy", str(rnd)), "part3_s",
             _entropy_family("random16.uc", inputs)),
    ]


# -- corpus ---------------------------------------------------------------------

FUZZ_SMALL = ("--n", "6", "--count", "6000")
FUZZ_WIDE = ("--n", "20", "--size", "64", "--kind", "uniform", "--count", "200")
EXAMPLE_N = 1000
# published count: 4959 union-closed families on [4] (2 M(4) - 1, M(4) = 2480)
ENUMERATE_N4_FAMILIES = 4959


def _check_fuzz(count: int):
    def check(rc, rep, notes):
        errors: list[str] = []
        _rc_ok(errors, rc)
        _expect(errors, rep["violation_found"] is False, "fuzz reported a violation")
        _expect(errors, rep["count"] == count, "fuzz count")
        _expect(errors, rep["theorem_checked"] + rep["skipped_small"] == count,
                "fuzz did not account for every family")
        _expect(errors, rep["skipped_pair_cap"] == 0, "families skipped at the pair cap")
        return errors
    return check


def _check_enumerate(rc, rep, notes):
    errors: list[str] = []
    _rc_ok(errors, rc)
    _expect(errors, rep["families"] == ENUMERATE_N4_FAMILIES,
            f"{rep['families']} families, expected {ENUMERATE_N4_FAMILIES}")
    _expect(errors, rep["all_satisfied"] is True, "enumeration not all satisfied")
    _expect(errors, _frac(rep["min_max_freq"]) == Fraction(1, 2),
            "minimum max-frequency != 1/2")
    return errors


def slice_max_frequency(n: int, k: int, m: int) -> Fraction:
    """Exact element frequency of the slice family (k-sets plus >= m-sets)."""
    containing = math.comb(n - 1, k - 1) + sum(math.comb(n - 1, j - 1) for j in range(m, n + 1))
    total = math.comb(n, k) + sum(math.comb(n, j) for j in range(m, n + 1))
    return Fraction(containing, total)


def _check_example(rc, rep, notes):
    errors: list[str] = []
    _rc_ok(errors, rc)
    ex = rep["example"]
    n = EXAMPLE_N
    k = math.floor(PSI * n + n ** (2.0 / 3.0) + 0.5)
    m = math.ceil((1.0 - PSI) * n)
    _expect(errors, (ex["n"], ex["k"], ex["m"]) == (n, k, m),
            f"slice parameters {(ex['n'], ex['k'], ex['m'])} != {(n, k, m)}")
    _expect(errors, ex["max_freq_exact"] == float(slice_max_frequency(n, k, m)),
            "max_freq_exact != exact slice frequency")
    return errors


def corpus_verbs(seed: int, inputs: Inputs) -> list[Verb]:
    s = str(seed)
    return [
        Verb("fuzz n=6 x6000", ("fuzz", *FUZZ_SMALL, "--seed", s, "--entropy-checks"),
             "part1_s", _check_fuzz(6000)),
        Verb("fuzz n=20 x200", ("fuzz", *FUZZ_WIDE, "--seed", s, "--entropy-checks"),
             "part2_s", _check_fuzz(200)),
        Verb("enumerate n=4", ("enumerate", "--n", "4"), None, _check_enumerate),
        Verb("example n=1000", ("example", "--n", str(EXAMPLE_N)), "part3_s", _check_example),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path], Inputs]
    make_oracle: Callable[[int, Inputs], None] | None
    make_verbs: Callable[[int, Inputs], list[Verb]]
    # what part1_s..part3_s measure here, under the names used in README.md
    parts: dict[str, str]


WORKLOADS = {
    "certify": Workload("certify", no_inputs, None, certify_verbs, {
        "part1_s": "certify_verified_s", "part2_s": "certify_refuted_s",
        "part3_s": "minimize_grid_s"}),
    "families": Workload("families", families_inputs, families_oracle, families_verbs, {
        "part1_s": "check_s", "part2_s": "entropy_powerset_s",
        "part3_s": "entropy_random_s"}),
    "corpus": Workload("corpus", no_inputs, None, corpus_verbs, {
        "part1_s": "fuzz_small_s", "part2_s": "fuzz_wide_s",
        "part3_s": "example1000_s"}),
}


def parse_report(text: str) -> dict[str, Any]:
    try:
        return json.loads(text)
    except ValueError:
        return {}
