"""Slice examples, exhaustive enumeration, and fuzz family streams."""

import math
from fractions import Fraction

import pytest

import ucc
from tests.pair_oracles import union_closed_by_encoding
from ucc.generators import (
    DegenerateSpecError,
    default_slice_level,
    default_threshold,
)

# independent big-integer oracle values for the n=1000 default example
LOG2_F1_1000 = 993.7568655454946
LOG2_F2_1000 = 954.838661794462
RATIO_1000 = 1.925099998075646e-12
MAX_FREQ_1000 = 0.4820000000002667
CLOSURE_DEFICIT_1000 = 1.5150133934948656e-48

# slice specs (n, k, m) small enough to materialize, each with pairs that miss
EXPLICIT_SPECS = ((4, 1, 3), (10, 3, 7), (12, 4, 8), (16, 5, 10))

# brute-force counts of union-closed families (empty-set members allowed)
ENUM_COUNTS = {1: 3, 2: 13, 3: 121, 4: 4959}


def test_default_spec_parameters():
    spec = ucc.ExampleSpec(n=1000)
    assert (spec.k, spec.m) == (482, 619)
    assert spec.k == default_slice_level(1000)
    assert spec.m == default_threshold(1000)
    spec = ucc.ExampleSpec(n=4000)
    assert (spec.k, spec.m) == (1780, 2473)
    spec = ucc.ExampleSpec(n=16000)
    assert (spec.k, spec.m) == (6746, 9889)


def test_default_spec_degenerate_at_small_n():
    # the slice level overtakes the threshold below a few hundred elements
    for n in (12, 20, 50):
        with pytest.raises(DegenerateSpecError):
            ucc.ExampleSpec(n=n)


def test_manual_spec_validation():
    with pytest.raises(DegenerateSpecError):
        ucc.ExampleSpec(n=10, k=5, m=5)  # k < m required
    with pytest.raises(DegenerateSpecError):
        ucc.ExampleSpec(n=10, k=0, m=5)
    with pytest.raises(DegenerateSpecError):
        ucc.ExampleSpec(n=10, k=3, m=11)
    with pytest.raises(ValueError):
        ucc.ExampleSpec(n=0)


def test_explicit_sizes_pinned():
    fam = ucc.slice_example(ucc.ExampleSpec(n=10, k=3, m=7))
    # C(10,3) + C(10,7)+C(10,8)+C(10,9)+C(10,10) = 120 + 176
    assert fam.size == 296
    sizes = {m.bit_count() for m in fam.sets}
    assert sizes == {3, 7, 8, 9, 10}


def test_explicit_requires_materializable_spec():
    with pytest.raises(ucc.CapExceededError):
        ucc.slice_example(ucc.ExampleSpec(n=40, k=20, m=30))
    with pytest.raises(ucc.CapExceededError, match="slice_stats"):
        ucc.slice_example(ucc.ExampleSpec(n=80, k=20, m=60))


def test_slice_max_frequency_small_exact():
    # n=4, k=1, m=3: 4 singletons + 5 large sets, every element in 5 of 9
    frac = ucc.slice_max_frequency(ucc.ExampleSpec(n=4, k=1, m=3))
    assert frac == Fraction(5, 9)
    fam = ucc.slice_example(ucc.ExampleSpec(n=4, k=1, m=3))
    prof = ucc.element_frequencies(fam)
    assert prof.max_freq == frac


def test_slice_max_frequency_n1000():
    assert float(ucc.slice_max_frequency(ucc.ExampleSpec(n=1000))) == pytest.approx(
        MAX_FREQ_1000, abs=1e-15)


def test_example_stats_n1000_oracles():
    stats = ucc.slice_stats(ucc.ExampleSpec(n=1000))
    assert stats.log2_f1 == pytest.approx(LOG2_F1_1000, abs=1e-9)
    assert stats.log2_f2 == pytest.approx(LOG2_F2_1000, abs=1e-9)
    assert stats.size_ratio == pytest.approx(RATIO_1000, rel=1e-9)
    assert stats.max_freq_exact == pytest.approx(MAX_FREQ_1000, abs=1e-15)
    # F2 is 12 orders of magnitude lighter than F1, and two k-sets almost
    # never overlap enough to keep their union below m
    assert float(stats.closure_deficit) == CLOSURE_DEFICIT_1000
    assert stats.log2_inv_closure_deficit == pytest.approx(158.853, abs=1e-3)
    assert 0.0 < stats.delta < 1e-47  # psi - delta rounds back to psi
    assert stats.psi_minus_delta == ucc.PSI < stats.max_freq_exact


@pytest.mark.parametrize("n,k,m", EXPLICIT_SPECS)
def test_closure_deficit_matches_explicit_family(n, k, m):
    spec = ucc.ExampleSpec(n=n, k=k, m=m)
    fam = ucc.slice_example(spec)
    eps = 1 - ucc.closure_fraction(fam)
    stats = ucc.slice_stats(spec)
    assert eps > 0
    assert stats.closure_deficit == eps  # exact Fraction equality
    assert stats.log2_inv_closure_deficit == pytest.approx(-math.log2(eps), abs=1e-12)
    theorem = ucc.check_theorem(fam)
    assert (stats.delta, stats.psi_minus_delta) == (theorem.delta, theorem.psi_minus_delta)
    assert stats.max_freq_exact == float(theorem.max_freq)


def test_closure_deficit_zero_on_union_closed_spec():
    # 2k - 1 >= m: two distinct 3-sets always reach size 4
    spec = ucc.ExampleSpec(n=10, k=3, m=4)
    assert ucc.is_union_closed(ucc.slice_example(spec))
    stats = ucc.slice_stats(spec)
    assert stats.closure_deficit == 0
    assert stats.log2_inv_closure_deficit is None
    assert (stats.delta, stats.psi_minus_delta) == (0.0, ucc.PSI)


def test_enumerate_counts_pinned():
    for n, want in ENUM_COUNTS.items():
        got = sum(1 for _ in ucc.enumerate_union_closed(n))
        assert got == want, f"n={n}"


def test_enumerate_against_independent_oracle():
    # frozenset reimplementation, no bit tricks shared with the library
    for n in (1, 2, 3):
        subsets = []
        for mask in range(1 << n):
            subsets.append(frozenset(i + 1 for i in range(n) if mask >> i & 1))
        brute = 0
        for pick in range(1, 1 << len(subsets)):
            fam = [s for i, s in enumerate(subsets) if pick >> i & 1]
            if all(a | b in fam for a in fam for b in fam):
                brute += 1
        assert brute == ENUM_COUNTS[n]


def test_enumerate_yields_valid_families(enumerated):
    for n, fams in enumerated.items():
        assert len(set(fams)) == len(fams)  # no duplicates
        for fam in fams:
            assert fam.universe_size == n
            assert ucc.is_union_closed(fam)


def test_enumerate_matches_the_encoding_scan():
    # the walk yields the scan's families in the scan's order
    for n in (1, 2, 3, 4):
        assert list(ucc.enumerate_union_closed(n)) == list(union_closed_by_encoding(n))


def test_enumerate_exclude_empty_relation(enumerated):
    # families containing the empty set are exactly {∅} plus any
    # union-closed family avoiding it, so N_all = 2 * N_no_empty + 1
    for fams in enumerated.values():
        n_no = sum(1 for fam in fams if 0 not in fam.sets)
        assert len(fams) == 2 * n_no + 1


def test_enumerate_half_frequency_oracle(enumerated):
    # the full conjecture is known at tiny n: some element in half the sets
    for fams in enumerated.values():
        for fam in fams:
            if all(m == 0 for m in fam.sets):
                continue
            prof = ucc.element_frequencies(fam)
            assert prof.max_freq >= Fraction(1, 2)


def test_enumerate_bounds_universe():
    with pytest.raises(ValueError):
        list(ucc.enumerate_union_closed(0))
    with pytest.raises(ValueError):
        list(ucc.enumerate_union_closed(6))


@pytest.mark.slow
def test_enumerate_n5_counts_moore_families():
    # 2 M(5) - 1 with M(5) = 1,385,552 Moore families (OEIS A102896);
    # strictly increasing encodings also rule out a repeated family
    count, prev = 0, -1
    for fam in ucc.enumerate_union_closed(5):
        encoding = sum(1 << m for m in fam.sets)
        assert encoding > prev
        count, prev = count + 1, encoding
    assert count == 2_771_103


def test_random_families_deterministic_and_sized():
    a = list(ucc.random_families(6, 10, 25, seed=123, kind="uniform"))
    b = list(ucc.random_families(6, 10, 25, seed=123, kind="uniform"))
    assert a == b
    assert len(a) == 25
    assert all(f.size == 10 for f in a)
    assert all(f.universe_size == 6 for f in a)


def test_random_families_closure_kind_is_closed():
    fams = list(ucc.random_families(6, 8, 40, seed=5, kind="closure-of-random"))
    assert all(ucc.is_union_closed(f) for f in fams)
    assert all(f.size >= 8 for f in fams)


def test_random_families_noisy_kind_perturbs():
    fams = list(ucc.random_families(6, 8, 40, seed=5, kind="noisy-uc"))
    eps = [1 - ucc.closure_fraction(f) for f in fams]
    assert any(e > 0 for e in eps)   # the noise does something
    assert all(e < Fraction(1, 2) for e in eps)  # but families stay coherent


def test_random_families_validation():
    with pytest.raises(ValueError):
        list(ucc.random_families(70, 4, 1, seed=0, kind="uniform"))
    with pytest.raises(ValueError):
        list(ucc.random_families(3, 9, 1, seed=0, kind="uniform"))  # size > 2^n
    with pytest.raises(ValueError):
        list(ucc.random_families(4, 4, 1, seed=0, kind="bogus"))
    with pytest.raises(ValueError):
        list(ucc.random_families(4, 4, 1, seed=0, kind="noisy-uc", rho=1.5))


def test_seeds_shift_streams():
    a = list(ucc.random_families(5, 6, 10, seed=1, kind="uniform"))
    b = list(ucc.random_families(5, 6, 10, seed=2, kind="uniform"))
    assert a != b


def _split_by_kind(n, size, count, seed, rho):
    """The per-kind split fuzz ran before random_families took "all": the
    oracle for that kind."""
    kinds = ucc.RANDOM_KINDS
    per = count // len(kinds)
    remainder = count - per * (len(kinds) - 1)
    out = []
    for pos, kind in enumerate(kinds):
        want = remainder if pos == len(kinds) - 1 else per
        if want <= 0:
            continue
        out.extend(ucc.random_families(n, size, want, ucc.derive_seed(seed, pos),
                                       kind, rho=rho))
    return out


@pytest.mark.parametrize("seed", [1, 20260816])
@pytest.mark.parametrize("count", [1, 2, 3, 7, 300])
def test_random_families_all_splits_the_count_across_kinds(count, seed):
    fams = list(ucc.random_families(5, 6, count, seed, "all", rho=0.3))
    assert len(fams) == count
    assert fams == _split_by_kind(5, 6, count, seed, rho=0.3)


@pytest.mark.parametrize("count", [0, -5])
def test_random_families_all_refuses_a_count_below_one(count):
    with pytest.raises(ValueError, match="size and count must be positive"):
        ucc.random_families(4, 4, count, seed=1, kind="all")
