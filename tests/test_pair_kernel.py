"""The pair-union kernel against the pure-Python pair walks it replaced.

The kernel returns its histogram as two int64 arrays, ascending unions and
positive counts; :func:`histogram` checks that shape and turns the pair
into a dict for the oracle comparisons.  Union counts and closure
fractions must be equal exactly; entropies and the data-processing sum
within 1e-12, and the oracle's chain sum, sum_i H(U_i | U below i), must
equal the union entropy within 1e-12 (the chain rule).  On seeded families
in both regimes the data-processing sum must equal the oracle's exactly,
and the union entropy must equal its sum over the whole list of counts and
the oracle's decomposition through the member indicator within 1e-12,
whatever the chunk the pass reads the histogram in.  The kernel must give
the same answers in both regimes, keep the pairwise regime free of 2^n
allocations, refuse histograms above its cell cap, and be built once per
family however many checks read it; the passes over it must stay within a
few bytes a cell.
"""

import collections
import functools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucc
import ucc.cli
import ucc.entropy  # loaded here, not inside a traced pass
import ucc.setfamily
from tests import pair_oracles as oracle
from tests.conftest import DATA_DIR
from tests.pair_oracles import ENTROPY_TOL

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def histogram(pair) -> dict[int, int]:
    """The kernel's ``(unions, counts)`` as a dict, after checking its shape."""
    unions, counts = pair
    assert unions.dtype == counts.dtype == np.int64
    assert unions.shape == counts.shape
    assert (np.diff(unions) > 0).all() and (counts > 0).all()
    return dict(zip(unions.tolist(), counts.tolist()))


def assert_matches_oracle(fam: ucc.SetFamily) -> None:
    assert histogram(fam.union_counts) == oracle.pair_union_counts(fam)
    eps = 1 - oracle.closure_fraction(fam)
    assert fam.closure_deficit == eps
    assert ucc.closure_fraction_unordered(fam) == oracle.closure_fraction_unordered(fam)
    assert (fam.closure_deficit == 0) == oracle.is_union_closed(fam)
    if fam.size >= 2:  # the theorem's delta is taken at the oracle's eps
        assert ucc.check_theorem(fam).delta == ucc.entropy.theorem_delta(eps, fam.size)
    assert fam.union_entropy == pytest.approx(oracle.union_entropy(fam), abs=ENTROPY_TOL)
    lower, upper = ucc.check_lower_bound(fam), ucc.check_upper_bound(fam)
    chain = ucc.chain_rule_check(fam)
    # each margin is taken against the family's own union entropy
    assert lower.margin_bits == fam.union_entropy - lower.rhs_bits
    assert upper.margin_bits == upper.rhs_bits - fam.union_entropy
    assert chain.margin_bits == fam.union_entropy - chain.rhs_bits
    assert oracle.chain_sum(fam) == pytest.approx(fam.union_entropy, abs=ENTROPY_TOL)
    assert chain.rhs_bits == pytest.approx(
        oracle.data_processing_sum(fam), abs=ENTROPY_TOL)


def test_kernel_matches_oracle_on_every_small_union_closed_family():
    seen = 0
    for n in range(1, 5):
        for fam in ucc.enumerate_union_closed(n):
            assert_matches_oracle(fam)
            seen += 1
    assert seen == 3 + 13 + 121 + 4959  # 2 M(n) - 1 for n = 1..4


def test_kernel_matches_oracle_on_fuzz_corpus(fuzz_corpus):
    for fam in fuzz_corpus:
        assert_matches_oracle(fam)


@st.composite
def families(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    masks = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    return ucc.SetFamily.from_masks(n, masks)


@given(families())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_oracle_on_arbitrary_families(fam):
    assert_matches_oracle(fam)


# regimes: dense when 2^n <= min(|F|^2, _MAX_CELLS), pairwise otherwise

def _is_dense(fam: ucc.SetFamily) -> bool:
    return 1 << fam.universe_size <= min(fam.size ** 2, ucc.setfamily._MAX_CELLS)


def assert_same_statistics(a: ucc.SetFamily, b: ucc.SetFamily) -> None:
    assert histogram(a.union_counts) == histogram(b.union_counts)
    assert a.closure_deficit == b.closure_deficit
    assert ucc.closure_fraction_unordered(a) == ucc.closure_fraction_unordered(b)
    assert a.union_entropy == pytest.approx(b.union_entropy, abs=ENTROPY_TOL)
    for check in (ucc.check_lower_bound, ucc.check_upper_bound, ucc.chain_rule_check):
        assert check(a).rhs_bits == pytest.approx(check(b).rhs_bits, abs=ENTROPY_TOL)


@st.composite
def dense_masks(draw):
    """A universe size and enough distinct masks over it for the dense regime."""
    n = draw(st.integers(2, 8))
    least = math.isqrt((1 << n) - 1) + 1  # smallest s with s^2 >= 2^n
    masks = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=least, max_size=1 << n))
    return n, masks


@given(dense_masks(), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_regime_invariance(nm, extra):
    n, masks = nm
    dense = ucc.SetFamily.from_masks(n, masks)
    # 2^bit_length(x) > x, so the wider universe is in the pairwise regime
    wide_n = max(n + 1, (len(masks) ** 2).bit_length()) + extra
    pairwise = ucc.SetFamily.from_masks(wide_n, masks)
    assert _is_dense(dense) and not _is_dense(pairwise)
    assert_same_statistics(dense, pairwise)


def test_dense_regime_power_set_of_eleven():
    n = 11
    fam = ucc.SetFamily.from_masks(n, range(1 << n))
    assert _is_dense(fam)
    # A | B = U: each element of U lies in A only, in B only, or in both
    assert histogram(fam.union_counts) == {u: 3 ** bin(u).count("1") for u in range(1 << n)}
    assert fam.closure_deficit == 0
    assert ucc.closure_fraction_unordered(fam) == 1
    chain = ucc.chain_rule_check(fam)
    assert chain.satisfied
    assert fam.union_entropy == pytest.approx(n * ucc.binary_entropy(0.25), abs=ENTROPY_TOL)
    assert chain.rhs_bits == pytest.approx(fam.union_entropy, abs=ENTROPY_TOL)


def test_pairwise_regime_never_allocates_the_universe():
    n = 20
    rng = random.Random(20)
    fam = ucc.SetFamily.from_masks(n, (rng.getrandbits(n) for _ in range(64)))
    assert fam.size == 64 and not _is_dense(fam)
    tracemalloc.start()
    try:
        counts = ucc.setfamily.pair_union_counts(n, fam.sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # numpy reports its buffers to tracemalloc; one int64 per cell of the
    # universe would be 8 MiB
    assert peak < (1 << n)
    assert histogram(counts) == oracle.pair_union_counts(fam)
    assert_matches_oracle(fam)


def test_dense_regime_capped_by_universe_width(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("dense transform above the cell cap")

    fam = ucc.SetFamily.from_masks(4, range(8))  # 2^4 <= |F|^2, 8 distinct unions
    assert _is_dense(fam)
    monkeypatch.setattr(ucc.setfamily, "_MAX_CELLS", 8)
    monkeypatch.setattr(np, "zeros", no_dense)
    assert not _is_dense(fam)
    # a histogram of exactly _MAX_CELLS cells is still built
    assert histogram(ucc.setfamily.pair_union_counts(4, fam.sets)) == \
        oracle.pair_union_counts(fam)


# the passes over a built histogram read it a chunk at a time; whatever the
# chunk, every sum rounds as one correctly rounded sum over all its terms

def assert_sums_exact(fam: ucc.SetFamily, chain_sum: float, dp_sum: float,
                      decomposition: float) -> None:
    """The data-processing sum equals the oracle's and the union entropy
    the whole-list formula's, to the last bit, and the oracle's chain sum
    and decomposition are the union entropy."""
    chain = ucc.chain_rule_check(fam)
    for identity in (chain_sum, decomposition):
        assert identity == pytest.approx(fam.union_entropy, abs=ENTROPY_TOL)
    # one correctly rounded fsum per coordinate, added in ascending order,
    # on both sides, so not even the last bit may differ
    assert chain.rhs_bits == dp_sum
    assert chain.satisfied
    assert fam.union_entropy == ucc.setfamily._entropy_from_counts(
        fam.union_counts[1].tolist(), fam.size ** 2)


@functools.cache
def oracle_case(n: int, size: int) -> tuple[tuple[int, ...], float, float, float, float]:
    """Seeded masks and their oracle chain, data-processing, decomposition
    and union entropy sums, computed once per (n, size)."""
    rng = random.Random(n * size)
    # len(range(2^63)) overflows a C ssize_t, so the widest case draws bits
    masks = (rng.sample(range(1 << n), size) if n < 63
             else [rng.getrandbits(n) for _ in range(size)])
    fam = ucc.SetFamily.from_masks(n, masks)
    pairs = oracle.pair_union_counts(fam)
    return (fam.sets, oracle.chain_sum(fam, pairs), oracle.data_processing_sum(fam),
            oracle.decomposition(fam, pairs), oracle.union_entropy(fam))


# n = 63, the word cap, puts 2^63 - 1 in the widest prefix mask.  Each case
# runs with the real chunk (no suffix), with chunks of 1, 2 and 3 cells, and
# with chunks of K - 2 to K + 1 for the histogram's K cells.  A chunk of 1
# puts each cell in a chunk of its own; 2 and 3 leave a last chunk shorter
# than the rest whenever K is not a multiple.  K - 2 and K - 1 leave two
# cells, or one, for a second chunk, and K and K + 1 read every cell in
# one.
CHUNKS = {"": None, "-chunk1": (0, 1), "-chunk2": (0, 2), "-chunk3": (0, 3),
          "-chunkK-2": (1, -2), "-chunkK-1": (1, -1), "-chunkK": (1, 0),
          "-chunkK+1": (1, 1)}  # suffix: (multiple of K, offset) or the real chunk


@pytest.mark.parametrize("n, size, dense, chunk", [
    pytest.param(n, size, dense, chunk, id=f"{n}-{size}-{dense}{suffix}")
    for n, size, dense in [(40, 300, False), (13, 512, True), (63, 40, False)]
    for suffix, chunk in CHUNKS.items()])
def test_chain_sums_equal_the_oracle_exactly(n, size, dense, chunk, monkeypatch):
    masks, chain_sum, dp_sum, decomposition, entropy = oracle_case(n, size)
    if chunk:
        per_cell, offset = chunk
        cells = len(ucc.SetFamily.from_masks(n, masks).union_counts[0])
        monkeypatch.setattr(ucc.setfamily, "_CHUNK_CELLS", per_cell * cells + offset)
    fam = ucc.SetFamily.from_masks(n, masks)
    assert fam.size == size and _is_dense(fam) == dense
    assert_sums_exact(fam, chain_sum, dp_sum, decomposition)
    assert fam.union_entropy == pytest.approx(entropy, abs=ENTROPY_TOL)


def test_chain_rule_check_memory():
    # 2048 masks over [16]: about 42,800 cells.  The peak covers the
    # histogram build too; a dict of two-element lists per coordinate
    # needed about 8.4 MB here, numpy arrays as long as the histogram, six
    # at once, 2.9 MB, and a second pass over the histogram for the chain
    # sum, with its sorted keys and running sum, 1.7 MB.
    fam = ucc.SetFamily.from_masks(16, random.Random(16).sample(range(1 << 16), 2048))
    tracemalloc.start()
    try:
        ucc.chain_rule_check(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fam.union_counts[0]) > 40_000
    assert peak < 1.4 * 2 ** 20


def test_passes_over_the_histogram_take_bounded_bytes_per_cell():
    # 2048 random masks over [20], dense regime: about 232,000 cells, a
    # 3.6 MB histogram.  Above it, the union entropy holds buffers of one
    # chunk; the upper bound and the chain rule read only the members and
    # the cached entropy.  Whole lists of Python ints or several arrays as
    # long as the histogram took 8, 17 and 56 bytes a cell, a chain sum over
    # the histogram with its sorted keys and running sum 17.7, and the upper
    # bound's member flags and split of the counts 1.46.
    rng = random.Random(20)
    fam = ucc.SetFamily.from_masks(20, (rng.getrandbits(20) for _ in range(2048)))
    assert _is_dense(fam)
    cells = len(fam.union_counts[0])
    assert cells > 200_000
    limits = [(lambda: fam.union_entropy, 1),
              (lambda: ucc.check_upper_bound(fam), 0.5),
              (lambda: ucc.chain_rule_check(fam), 2)]
    for run, bytes_per_cell in limits:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bytes_per_cell * cells


def test_histogram_is_shared_and_read_only():
    fam = ucc.SetFamily.from_masks(3, range(8))
    unions, counts = fam.union_counts
    # the cached arrays themselves, not copies
    assert fam.union_counts[0] is unions and fam.union_counts[1] is counts
    assert ucc.union_distribution(fam).support_size == 8
    with pytest.raises(ValueError):
        counts[0] = 2


# one cell cap refuses oversized histograms, whichever verb asks first

SMALL_CAP = 4


@pytest.fixture()
def small_cap(monkeypatch):
    monkeypatch.setattr(ucc.setfamily, "_MAX_CELLS", SMALL_CAP)


@pytest.fixture()
def or_blocks(monkeypatch):
    """Counts the ``bitwise_or.outer`` row blocks the kernel computes."""
    blocks: list[int] = []
    bitwise_or = np.bitwise_or

    class CountingOr:
        @staticmethod
        def outer(*args, **kwargs):
            blocks.append(1)
            return bitwise_or.outer(*args, **kwargs)

    monkeypatch.setattr(np, "bitwise_or", CountingOr)
    return blocks


def test_pairwise_regime_stops_at_the_cell_cap(small_cap, monkeypatch, or_blocks):
    monkeypatch.setattr(ucc.setfamily, "_PAIR_BLOCK_CELLS", 8)  # one row per block
    # the first row, 0 | B, already yields 8 distinct unions
    with pytest.raises(ucc.CapExceededError, match=f"cap of {SMALL_CAP} cells"):
        ucc.setfamily.pair_union_counts(3, range(8))
    assert len(or_blocks) == 1


def test_pairwise_cap_counts_the_merged_histogram(small_cap, monkeypatch, or_blocks):
    monkeypatch.setattr(ucc.setfamily, "_PAIR_BLOCK_CELLS", 4)  # one row per block
    # row 0 | B gives {0, 1, 2, 4}, exactly the cap; row 1 | B adds 3 and 5
    with pytest.raises(ucc.CapExceededError, match=f"cap of {SMALL_CAP} cells"):
        ucc.setfamily.pair_union_counts(3, [0, 1, 2, 4])
    assert len(or_blocks) == 2


def test_pairwise_blocks_merge_into_one_histogram(monkeypatch, or_blocks):
    rng = random.Random(31)
    fam = ucc.SetFamily.from_masks(12, (rng.getrandbits(12) for _ in range(40)))
    assert not _is_dense(fam)
    monkeypatch.setattr(ucc.setfamily, "_PAIR_BLOCK_CELLS", 3 * fam.size)
    counts = ucc.setfamily.pair_union_counts(fam.universe_size, fam.sets)
    assert len(or_blocks) == math.ceil(fam.size / 3)
    assert histogram(counts) == oracle.pair_union_counts(fam)


@pytest.mark.parametrize("verb", ["check", "entropy"])
def test_cli_cap_hit_is_one_usage_line(small_cap, capsys, verb):
    assert ucc.cli.run_cli([verb, str(DATA_DIR / "powerset3.uc")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ucc: pair-union histogram exceeds cap of {SMALL_CAP} cells\n"


def test_fuzz_counts_families_refused_at_the_cap(small_cap, capsys):
    # from three seed sets, some families fit the cap and some do not
    argv = ["fuzz", "--n", "5", "--size", "3", "--count", "40", "--seed", "11",
            "--entropy-checks"]
    assert ucc.cli.run_cli(argv) == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert captured.err == ""
    assert rep["skipped_pair_cap"] > 0 and rep["theorem_checked"] > 0
    assert rep["theorem_checked"] + rep["skipped_small"] + rep["skipped_pair_cap"] == 40


def test_entropy_beyond_the_old_family_size_cap(tmp_path, capsys):
    # 5000^2 ordered pairs exceed _MAX_CELLS = 4096^2; the 2^16 cells do not
    n, size = 16, 5000
    fam = ucc.SetFamily.from_masks(n, random.Random(5000).sample(range(1 << n), size))
    path = tmp_path / "random5000.uc"
    path.write_text(ucc.format_family(fam), encoding="utf-8")
    assert ucc.cli.run_cli(["entropy", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["family_size"] == size
    for key in ("lower_bound", "upper_bound", "chain_rule"):
        assert obj[key]["satisfied"] is True
    assert sum(histogram(fam.union_counts).values()) == size ** 2


# the histogram is built once per family

@pytest.fixture()
def kernel_calls(monkeypatch):
    calls: list[int] = []
    kernel = ucc.setfamily.pair_union_counts

    def counting(universe_size, sets):
        calls.append(id(sets))
        return kernel(universe_size, sets)

    monkeypatch.setattr(ucc.setfamily, "pair_union_counts", counting)
    return calls


@pytest.mark.parametrize("verb", ["check", "entropy"])
@pytest.mark.parametrize("name", ["powerset3.uc", "near_closed.uc", "two_singletons.uc"])
def test_one_histogram_per_cli_family(kernel_calls, capsys, verb, name):
    assert ucc.cli.run_cli([verb, str(DATA_DIR / name)]) == 0
    capsys.readouterr()
    assert len(kernel_calls) == 1


def test_one_histogram_per_fuzz_family(kernel_calls, monkeypatch, capsys):
    drawn: list[ucc.SetFamily] = []  # kept alive so their ids stay distinct
    families_of = ucc.cli.random_families

    def recording(*args, **kwargs):
        for fam in families_of(*args, **kwargs):
            drawn.append(fam)
            yield fam

    monkeypatch.setattr(ucc.cli, "random_families", recording)
    argv = ["fuzz", "--n", "5", "--count", "40", "--seed", "11", "--entropy-checks"]
    assert ucc.cli.run_cli(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    checked = [id(fam.sets) for fam in drawn if fam.size >= 2]
    assert len(checked) == rep["theorem_checked"] > 0
    assert collections.Counter(kernel_calls) == collections.Counter(checked)


def test_fuzz_entropy_checks_decide_the_two_bounds(monkeypatch, capsys):
    # the chain rule's data-processing step holds for every family: only
    # the entropy report decides it, not fuzz once per family
    calls = collections.Counter()
    for name in ("check_lower_bound", "check_upper_bound", "chain_rule_check"):
        def counted(family, check=getattr(ucc.cli, name), name=name):
            calls[name] += 1
            return check(family)
        monkeypatch.setattr(ucc.cli, name, counted)
    argv = ["fuzz", "--n", "5", "--count", "40", "--seed", "11", "--entropy-checks"]
    assert ucc.cli.run_cli(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    checked = rep["theorem_checked"]
    assert checked > 0
    assert calls == {"check_lower_bound": checked, "check_upper_bound": checked}

    calls.clear()
    assert ucc.cli.run_cli(["entropy", str(DATA_DIR / "near_closed.uc")]) == 0
    capsys.readouterr()
    assert calls == {"check_lower_bound": 1, "check_upper_bound": 1, "chain_rule_check": 1}


def test_import_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ucc.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
