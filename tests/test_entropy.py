"""Exact union distributions and the information-theoretic checks."""

import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucc
import ucc.entropy
import ucc.setfamily
from ucc.cli import run_cli
from tests import pair_oracles as oracle
from tests.conftest import DATA_DIR
from tests.pair_oracles import ENTROPY_TOL

H_QUARTER = 0.8112781244591328  # h(1/4)
# delta for {∅,{1},{2}}: eps=2/9, |F|=3
DELTA_TWO_SINGLETONS = 1.0529201095237968


def test_union_distribution_power_set_one():
    fam = ucc.SetFamily.from_masks(1, [0, 1])
    unions, counts = fam.union_counts
    assert unions.tolist() == [0, 1] and counts.tolist() == [1, 3]  # of 4 pairs
    dist = ucc.union_distribution(fam)
    assert dist == (2, fam.union_entropy)
    assert dist.entropy_bits == pytest.approx(H_QUARTER, abs=1e-14)


def test_union_distribution_power_set_two():
    fam = ucc.SetFamily.from_masks(2, range(4))
    unions, counts = fam.union_counts
    # coordinates independent: each union coordinate is Bernoulli(3/4)
    assert unions.tolist() == [0b00, 0b01, 0b10, 0b11]
    assert counts.tolist() == [1, 3, 3, 9]  # out of 16 ordered pairs
    dist = ucc.union_distribution(fam)
    assert dist.support_size == 4
    assert dist.entropy_bits == pytest.approx(2 * H_QUARTER, abs=1e-13)


def test_chain_rule_on_power_set(powerset3):
    rep = ucc.chain_rule_check(powerset3)
    assert rep.applicable and rep.satisfied
    # independent coordinates: conditioning on source prefixes changes nothing
    assert rep.margin_bits == pytest.approx(0.0, abs=1e-12)
    assert abs(oracle.chain_sum(powerset3) - powerset3.union_entropy) <= 1e-12
    assert powerset3.union_entropy == pytest.approx(3 * H_QUARTER, abs=1e-12)


def test_chain_rule_strict_gain_when_coordinates_interact():
    fam = ucc.SetFamily.from_masks(4, [0b0001, 0b0011, 0b0111, 0b1111])
    rep = ucc.chain_rule_check(fam)
    assert rep.satisfied
    assert rep.margin_bits > 0.01  # nested sets couple the coordinates


def test_lower_bound_pinned_singleton():
    fam = ucc.SetFamily.from_masks(1, [0b1])
    rep = ucc.check_lower_bound(fam)
    assert rep.applicable and rep.satisfied
    assert fam.union_entropy == 0.0
    assert rep.rhs_bits == 0.0  # p = 0: element 1 in every set
    assert 1 - ucc.element_frequencies(fam).max_freq == 0


def test_lower_bound_power_set(powerset3):
    rep = ucc.check_lower_bound(powerset3)
    assert rep.satisfied
    assert rep.margin_bits == powerset3.union_entropy - rep.rhs_bits
    assert rep.rhs_bits == pytest.approx(
        0.5 * ucc.HALF_INV_PHI * 2 * math.log2(8), abs=1e-12)
    assert 1 - ucc.element_frequencies(powerset3).max_freq == Fraction(1, 2)


def test_upper_bound_union_closed_family(powerset3):
    rep = ucc.check_upper_bound(powerset3)
    assert rep.applicable and rep.satisfied
    # eps = 0: rhs collapses to log2 |F|
    assert rep.rhs_bits == pytest.approx(math.log2(8), abs=1e-12)
    assert powerset3.closure_deficit == 0


def test_upper_bound_inapplicable_when_eps_at_half():
    fam = ucc.SetFamily.from_masks(2, [1, 2])  # eps = 1/2 exactly
    rep = ucc.check_upper_bound(fam)
    assert not rep.applicable
    assert rep.satisfied  # inapplicable is never a failure


def test_theorem_inapplicable_when_eps_at_half():
    # eps >= 1/2 makes delta >= 1 > psi, so psi - delta <= 0 decides it
    fam = ucc.SetFamily.from_masks(2, [1, 2])  # eps = 1/2 exactly
    rep = ucc.check_theorem(fam)
    assert fam.closure_deficit == Fraction(1, 2)
    assert ucc.PSI - rep.delta <= 0.0
    assert rep.applicable is False
    assert rep.satisfied is True


def test_upper_bound_decomposition_identity(near_closed):
    # the split on I = [A|B in F] that the bound rests on, from the pair walk
    rep = ucc.check_upper_bound(near_closed)
    assert rep.applicable and rep.satisfied
    assert oracle.decomposition(near_closed) == pytest.approx(
        near_closed.union_entropy, abs=ENTROPY_TOL)


def test_theorem_on_union_closed(powerset3):
    rep = ucc.check_theorem(powerset3)
    assert rep.applicable and rep.satisfied
    assert powerset3.closure_deficit == 0
    assert rep.delta == 0.0
    assert powerset3.frequency_profile.max_freq == Fraction(1, 2)


def test_theorem_vacuous_instance():
    fam = ucc.SetFamily.from_masks(2, [0b00, 0b01, 0b10])
    rep = ucc.check_theorem(fam)
    assert fam.closure_deficit == Fraction(2, 9)
    assert rep.delta == pytest.approx(DELTA_TWO_SINGLETONS, abs=1e-12)
    assert not rep.applicable  # psi - delta < 0: vacuous
    assert rep.satisfied


def test_theorem_nontrivial_near_closed(near_closed):
    rep = ucc.check_theorem(near_closed)
    assert near_closed.closure_deficit == Fraction(3, 50)
    assert rep.applicable
    assert rep.satisfied
    assert ucc.PSI - rep.delta == pytest.approx(0.11534416129614239, abs=1e-12)
    assert near_closed.frequency_profile.max_freq == Fraction(7, 10)


def test_theorem_inapplicable_on_one_set():
    # a one-set family is union closed, and {empty set} has max_freq 0
    for mask, max_freq in ((0, 0), (0b01, 1)):
        fam = ucc.SetFamily(2, (mask,))
        rep = ucc.check_theorem(fam)
        assert (fam.closure_deficit, rep.delta, fam.frequency_profile.max_freq) == (
            0, 0.0, max_freq)
        assert (rep.applicable, rep.satisfied) == (False, True)


def test_theorem_delta_zero_iff_union_closed(powerset3, near_closed):
    assert ucc.check_theorem(powerset3).delta == 0.0
    assert ucc.check_theorem(near_closed).delta > 0.0


def test_faulty_float_code_is_a_certified_contradiction(monkeypatch, near_closed):
    # the data-processing step holds for every family, and H(A|B) never
    # exceeds 2 log2 |F|, so broken float code must fail both checks
    monkeypatch.setattr(ucc.entropy, "_weighted_fsum", lambda terms: 1e3)
    assert ucc.chain_rule_check(near_closed).satisfied is False
    fresh = ucc.load_family(DATA_DIR / "near_closed.uc")  # entropy not cached yet
    monkeypatch.setattr(ucc.setfamily, "_entropy_from_counts", lambda counts, total: 1e3)
    assert ucc.check_upper_bound(fresh).satisfied is False


def test_constant_enclosures_contain_psi_and_half_inv_phi():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        sqrt5 = mpmath.sqrt(5)
        for enc, exact in ((ucc.entropy._PSI_ENCLOSURE, (3 - sqrt5) / 2),
                           (ucc.entropy._HALF_INV_PHI_ENCLOSURE, (1 + sqrt5) / 4)):
            assert enc.lo < exact < enc.hi
            assert enc.hi - enc.lo < 1e-15


def _fibonacci(count):
    out, a, b = [], 0, 1
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out


def test_at_least_psi_on_fibonacci_ratios():
    # F_k / F_{k+2} tends to psi = 1/phi^2 from alternate sides, within
    # about phi^(-2k) of it: past k = 40 no float can separate them
    mpmath = pytest.importorskip("mpmath")
    fib = _fibonacci(93)
    verdicts = []
    with mpmath.workdps(60):
        psi = (3 - mpmath.sqrt(5)) / 2
        for k in range(2, 91):
            expected = mpmath.mpf(fib[k]) / fib[k + 2] >= psi
            assert ucc.entropy._at_least_psi(Fraction(fib[k], fib[k + 2])) == expected, k
            verdicts.append(expected)
    assert all(a != b for a, b in zip(verdicts, verdicts[1:]))
    assert float(Fraction(fib[90], fib[92])) == float(Fraction(fib[89], fib[91]))


@given(st.integers(1, 1 << 64).flatmap(
    lambda b: st.tuples(st.integers(0, b), st.just(b))))
@settings(max_examples=300, deadline=None)
def test_at_least_psi_matches_mpmath(ab):
    # a^2 - 3ab + b^2 = b^2 (a/b - psi)(a/b - 1/psi) is a nonzero integer,
    # so |a/b - psi| > 1/(3 b^2) > 1e-39, well within 60 digits
    mpmath = pytest.importorskip("mpmath")
    a, b = ab
    with mpmath.workdps(60):
        expected = mpmath.mpf(a) / b >= (3 - mpmath.sqrt(5)) / 2
    assert ucc.entropy._at_least_psi(Fraction(a, b)) == expected


@st.composite
def small_families(draw):
    n = draw(st.integers(1, 4))
    masks = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=10))
    return ucc.SetFamily.from_masks(n, masks)


@given(small_families())
@settings(max_examples=150, deadline=None)
def test_bounds_hold_for_arbitrary_families(fam):
    # the pairwise union bound holds for any independent uniform draws,
    # union-closed or not
    low = ucc.check_lower_bound(fam)
    chain = ucc.chain_rule_check(fam)
    up = ucc.check_upper_bound(fam)
    assert low.satisfied
    assert chain.satisfied
    assert up.satisfied
    # every margin is taken against the one union entropy of the family
    assert low.margin_bits == fam.union_entropy - low.rhs_bits
    assert chain.margin_bits == fam.union_entropy - chain.rhs_bits
    assert up.margin_bits == up.rhs_bits - fam.union_entropy


@given(small_families())
@settings(max_examples=100, deadline=None)
def test_union_entropy_definition(fam):
    dist = ucc.union_distribution(fam)
    counts = fam.union_counts[1].tolist()
    assert dist.support_size == len(counts)
    probs = [Fraction(c, fam.size ** 2) for c in counts]
    assert sum(probs) == 1
    brute = -math.fsum(float(p) * math.log2(float(p)) for p in probs)
    assert dist.entropy_bits == pytest.approx(brute, abs=1e-10)


def test_entropy_run_evaluates_union_entropy_once(monkeypatch, capsys):
    # every entropy of counts goes through _entropy_from_counts; one
    # `ucc entropy` run takes one, of the whole histogram (total = |F|^2)
    totals = []
    original = ucc.setfamily._entropy_from_counts

    def counted(counts, total):
        totals.append(total)
        return original(counts, total)

    # wherever a ucc module bound the name, so that no route escapes the count
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "ucc"
                and getattr(module, "_entropy_from_counts", None) is original):
            monkeypatch.setattr(module, "_entropy_from_counts", counted)
    for path in sorted(DATA_DIR.glob("*.uc")):
        size = ucc.load_family(str(path)).size
        totals.clear()
        assert run_cli(["entropy", str(path)]) == 0
        capsys.readouterr()
        assert totals == [size ** 2], path.name


def test_entropy_run_searches_the_members_once(monkeypatch, capsys):
    # the closure count is the one search of the |F| members in the sorted
    # unions; one `ucc entropy` run, theorem and upper bound alike, takes it once
    searched = []
    searchsorted = np.searchsorted

    def counted(a, v, *args, **kwargs):
        searched.append(tuple(np.asarray(v).tolist()))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    for path in sorted(DATA_DIR.glob("*.uc")):
        family = ucc.load_family(str(path))
        searched.clear()
        assert run_cli(["entropy", str(path)]) == 0
        capsys.readouterr()
        assert searched.count(family.sets) == 1, path.name


# verdicts by (check, applicable) over every family of size >= 2 over [n]
EVERY_FAMILY_VERDICTS = {
    3: {("theorem", True): 122, ("theorem", False): 125,
        ("lower_bound", True): 247, ("upper_bound", True): 230,
        ("upper_bound", False): 17, ("chain_rule", True): 247},
    4: {("theorem", True): 16_435, ("theorem", False): 49_084,
        ("lower_bound", True): 65_519, ("upper_bound", True): 62_763,
        ("upper_bound", False): 2_756, ("chain_rule", True): 65_519},
}
# over [n], the applicable family with eps > 0 whose max frequency comes
# closest to psi - delta: (max_freq - (psi - delta), the one mask it lacks,
# eps); the first in encoding order among its images under permutations
# of [n]
CLOSEST_APPROACH = {3: (0.40528238163903596, 0b110, Fraction(2, 49)),
                    4: (0.2001502905310537, 0b1100, Fraction(2, 225))}


@pytest.mark.parametrize("n", [3, pytest.param(4, marks=pytest.mark.slow)])
def test_every_family_over_n_elements_is_decided(n):
    # all 2^(2^n) - 1 nonempty families over [n], closed or not, are a
    # complete class: every verdict on those of size >= 2 (247 for n = 3,
    # 65,519 for n = 4) is true or inapplicable, and none is left
    # undecided (null).  The extremes are pinned too: the closest approach
    # to psi - delta, and the least lower-bound ratio H(U)/(p 2 log2|F|),
    # h(1/4), first at the subcube {∅, {1}} (the power set of [n] ties with it)
    checks = {"theorem": ucc.check_theorem, "lower_bound": ucc.check_lower_bound,
              "upper_bound": ucc.check_upper_bound, "chain_rule": ucc.chain_rule_check}
    applicable = Counter()
    closest = least = (math.inf, None)
    for encoding in range(1, 1 << (1 << n)):
        fam = ucc.SetFamily.from_masks(n, (m for m in range(1 << n) if encoding >> m & 1))
        if fam.size < 2:
            continue
        reps = {name: check(fam) for name, check in checks.items()}
        for name, rep in reps.items():
            assert rep.satisfied is not None, (name, fam)
            assert rep.satisfied or not rep.applicable, (name, fam)
            applicable[name, rep.applicable] += 1
        theorem = reps["theorem"]
        eps, max_freq = fam.closure_deficit, fam.frequency_profile.max_freq
        # strict comparisons: the first family in encoding order wins a tie
        gap = float(max_freq) - (ucc.PSI - theorem.delta)
        if theorem.applicable and eps > 0 and gap < closest[0]:
            closest = (gap, fam, eps)
        p = 1 - max_freq
        if p > 0:
            ratio = fam.union_entropy / (float(p) * 2 * math.log2(fam.size))
            if ratio < least[0]:
                least = (ratio, fam)
    assert applicable == EVERY_FAMILY_VERDICTS[n]
    gap, lacking, eps = CLOSEST_APPROACH[n]
    assert closest[0] == pytest.approx(gap, abs=1e-12)
    assert closest[1:] == (
        ucc.SetFamily.from_masks(n, set(range(1 << n)) - {lacking}), eps)
    assert least[0] == pytest.approx(H_QUARTER, abs=1e-12)
    assert least[1] == ucc.SetFamily.from_masks(n, [0b0, 0b1])
