"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
line (visible under ``pytest -s``) before asserting, so a scan of the
output gives the full verdict even when a later criterion dies.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

import ucc
from ucc.analytic.scalars import big_g_of
from ucc.cli import run_cli
from ucc.rng import SplitMix64
from tests import pair_oracles as oracle
from tests.conftest import DATA_DIR, strict_json

GOLDEN_X = 0.6180339887
GOLDEN_VALUE = 1.6180339887


def _verdict(label, failures):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, "; ".join(failures)


def test_acceptance_1_diagonal_minimum():
    failures = []
    t0 = time.perf_counter()
    dm = ucc.minimize_diagonal()
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget 1s")
    if abs(dm.x_star - GOLDEN_X) > 1e-6:
        failures.append(f"x_star={dm.x_star!r} off by {abs(dm.x_star - GOLDEN_X):.2e}")
    if abs(dm.value - GOLDEN_VALUE) > 1e-9:
        failures.append(f"value={dm.value!r} off by {abs(dm.value - GOLDEN_VALUE):.2e}")
    _verdict("1/7 diagonal ratio minimum at the golden point", failures)


def test_acceptance_2_certificates_and_grid():
    failures = []

    t0 = time.perf_counter()
    cert = ucc.certify_lower_bound(theta=0.809016, eta=1e-4)
    elapsed = time.perf_counter() - t0
    if not cert.verified:
        failures.append(f"theta=0.809016 not verified: {cert.status}")
    if cert.boxes_processed > 10_000_000:
        failures.append(f"box budget blown: {cert.boxes_processed}")
    if elapsed >= 120.0:
        failures.append(f"certification took {elapsed:.1f}s, budget 120s")

    refuted = ucc.certify_lower_bound(theta=0.81, eta=1e-4)
    if refuted.verified or not refuted.violation_boxes:
        failures.append("theta=0.81 should produce counterexample boxes")
    if refuted.boxes_processed:
        failures.append(f"theta=0.81 enclosed {refuted.boxes_processed} boxes; "
                        "the point (phi, phi) alone refutes it")
    for v in refuted.violation_boxes:
        cx = (v.x_lo + v.x_hi) / 2
        cy = (v.y_lo + v.y_hi) / 2
        dist = math.hypot(cx - ucc.PHI, cy - ucc.PHI)
        if dist > 1e-2:
            failures.append(f"violation box {dist:.2e} from the minimizer")
            break

    gc = ucc.corollary_grid_check(grid_points=1001)
    if gc.min_margin < -1e-12:
        failures.append(f"grid margin dips to {gc.min_margin!r}")
    step = 1.0 / 1000
    if max(abs(gc.argmin[0] - ucc.PHI), abs(gc.argmin[1] - ucc.PHI)) > step + 1e-12:
        failures.append(f"tightest margin at {gc.argmin}, not at the minimizer")
    _verdict("2/7 certified threshold, refutation localization, margin grid", failures)


def test_acceptance_3_theorem_on_corpora(fuzz_corpus):
    failures = []

    t0 = time.perf_counter()
    n4_count = 0
    for n in (1, 2, 3, 4):
        for fam in ucc.enumerate_union_closed(n):
            if n == 4:
                n4_count += 1
            if fam.size < 2:
                continue
            rep = ucc.check_theorem(fam)
            if rep.applicable and not rep.satisfied:
                failures.append(f"exhaustive n={n}: {ucc.format_family(fam)!r}")
    elapsed = time.perf_counter() - t0
    if n4_count != 4959:
        failures.append(f"n=4 scan found {n4_count} families, expected 4959")
    if elapsed >= 60.0:
        failures.append(f"exhaustive scan took {elapsed:.1f}s, budget 60s")

    applicable = 0
    for fam in fuzz_corpus:
        if fam.size < 2:
            continue
        rep = ucc.check_theorem(fam)
        if rep.applicable:
            applicable += 1
            if not rep.satisfied:
                failures.append(f"random family: {ucc.format_family(fam)!r}")
                break
    if applicable == 0:
        failures.append("no applicable family in the random corpus")
    _verdict("3/7 frequency bound on exhaustive and random corpora", failures)


def test_acceptance_4_entropy_inequalities(fuzz_corpus, enumerated):
    failures = []
    corpora = list(fuzz_corpus)
    for fams in enumerated.values():
        corpora.extend(fams)
    for fam in corpora:
        lower = ucc.check_lower_bound(fam)
        if lower.margin_bits < -1e-9:
            failures.append(f"lower margin {lower.margin_bits!r}: "
                            f"{ucc.format_family(fam)!r}")
            break
        upper = ucc.check_upper_bound(fam)
        if upper.applicable and upper.margin_bits < -1e-9:
            failures.append(f"upper margin {upper.margin_bits!r}: "
                            f"{ucc.format_family(fam)!r}")
            break
        chain = ucc.chain_rule_check(fam)
        # two identities for every family, from one pair walk: the chain
        # rule, sum_i H(U_i | U below i) = H(U), and the split on the
        # member indicator I, H(I) + sum_i Pr[I=i] H(U | I=i) = H(U)
        pairs = oracle.pair_union_counts(fam)
        identity = max(abs(oracle.chain_sum(fam, pairs) - fam.union_entropy),
                       abs(oracle.decomposition(fam, pairs) - fam.union_entropy))
        # and the data-processing step, from the oracle alone:
        # sum_i H(U_i | A below i, B below i) <= H(U)
        oracle_margin = fam.union_entropy - oracle.data_processing_sum(fam)
        if chain.margin_bits < -1e-9 or identity > 1e-9 or oracle_margin < -1e-9:
            failures.append(f"chain margin {chain.margin_bits!r} "
                            f"oracle margin {oracle_margin!r} "
                            f"identity {identity!r}: {ucc.format_family(fam)!r}")
            break
        # every verdict decided and true: none undecided (None), none false
        verdicts = {"lower_bound": lower.satisfied, "upper_bound": upper.satisfied,
                    "chain_rule": chain.satisfied}
        if set(verdicts.values()) != {True}:
            failures.append(f"verdicts {verdicts}: {ucc.format_family(fam)!r}")
            break
    _verdict("4/7 entropy inequalities on every corpus family", failures)


def test_acceptance_5_slice_example():
    failures = []
    t0 = time.perf_counter()
    stats = ucc.slice_stats(ucc.ExampleSpec(n=1000))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"exact statistics took {elapsed:.1f}s, budget 30s")
    if not stats.closure_deficit < Fraction(5, 1000):
        failures.append(f"closure deficit {float(stats.closure_deficit)!r}")
    # |F2| / |F1| at most 1e-6, compared in log space, where it cannot underflow
    if stats.log2_f2 - stats.log2_f1 > math.log2(1e-6):
        failures.append(f"log2 size ratio {stats.log2_f2 - stats.log2_f1!r}")
    if abs(stats.max_freq_exact - Fraction(482, 1000)) > Fraction(1, 100):
        failures.append(f"max frequency {float(stats.max_freq_exact)!r}")

    # the squeeze: eps and max_freq - psi fall together, and the theorem's
    # bound psi - delta stays at or below max_freq.  max_freq is exact, and
    # a float compares with a Fraction exactly, so every comparison below
    # is exact; float() is taken only for the messages
    sweep = [ucc.slice_stats(ucc.ExampleSpec(n=n)) for n in (1000, 4000, 16000)]
    deficits = [s.closure_deficit for s in sweep]
    gaps = [s.max_freq_exact - Fraction(ucc.PSI) for s in sweep]
    if not deficits[0] > deficits[1] > deficits[2] > 0:
        failures.append(f"closure deficit not falling: {[float(d) for d in deficits]}")
    if not gaps[0] > gaps[1] > gaps[2] > 0:
        failures.append(
            f"frequency sweep not decreasing toward psi: {[float(g) for g in gaps]}")
    for n, s in zip((1000, 4000, 16000), sweep):
        if not ucc.PSI - s.delta <= s.max_freq_exact:
            failures.append(f"n={n}: psi - delta {ucc.PSI - s.delta!r} above "
                            f"max_freq {float(s.max_freq_exact)!r}")
    _verdict("5/7 large slice example statistics and frequency sweep", failures)


def test_acceptance_6_scalar_calculus():
    failures = []
    rng = SplitMix64(6)

    # derivative of the weight function, g' = G/x as the enclosures use
    # it, against central differences
    delta = 1e-6
    worst_fd = 0.0
    for _ in range(1000):
        x = 0.01 + 0.98 * rng.random()
        fd = (ucc.g_of(x + delta) - ucc.g_of(x - delta)) / (2 * delta)
        worst_fd = max(worst_fd, abs(fd - big_g_of(x) / x))
    if worst_fd > 1e-5:
        failures.append(f"derivative mismatch {worst_fd:.2e}")

    grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
    big_g = [big_g_of(float(x)) for x in grid]
    if not all(a > b for a, b in zip(big_g, big_g[1:])):
        failures.append("log-weight ratio fails to decrease strictly")

    worst_rel = 0.0
    above_one = 0
    for _ in range(2000):
        x = 0.01 + 0.98 * rng.random()
        y = 0.01 + 0.98 * rng.random()
        val = ucc.f_ratio(x, y)
        if val >= 1.0:
            above_one += 1
        lhs = val * (ucc.g_of(x) + ucc.g_of(y))
        rhs = ucc.g_of(x * y)
        worst_rel = max(worst_rel, abs(lhs - rhs) / abs(rhs))
    if above_one:
        failures.append(f"{above_one} interior points with ratio >= 1")
    if worst_rel > 1e-10:
        failures.append(f"product identity off by {worst_rel:.2e} relative")
    _verdict("6/7 derivative, monotonicity, and product identity checks", failures)


def test_acceptance_7_deterministic_reports(capsys):
    invocations = [["check", str(p)] for p in sorted(DATA_DIR.glob("*.uc"))]
    invocations += [["entropy", str(p)] for p in sorted(DATA_DIR.glob("*.uc"))]
    invocations += [
        ["analytic", "minimize"],
        ["analytic", "grid", "--grid", "101"],
        ["analytic", "certify", "--theta", "0.80", "--eta", "0.01"],
        ["example", "--n", "1000"],
        ["enumerate", "--n", "3"],
        ["fuzz", "--n", "5", "--count", "50", "--seed", "3", "--entropy-checks"],
    ]
    failures = []

    def capture(argv):
        code = run_cli(argv)
        return code, capsys.readouterr().out

    for argv in invocations:
        runs = [capture(argv), capture(argv)]
        if runs[0] != runs[1]:
            failures.append(f"{argv}: output drifts between runs")
        if runs[0][1]:
            strict_json(runs[0][1])  # stdout must stay machine-readable
    _verdict("7/7 byte-identical reports across runs", failures)
