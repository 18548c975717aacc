"""The pair-union kernel against the pure-Python pair walks it replaced.

Union counts and closure fractions must be equal exactly; entropies, the
chain sum and the data-processing sum within 1e-12.  The kernel must give
the same answers in both regimes, keep the pairwise regime free of 2^n
allocations, refuse histograms above its cell cap, and be built once per
family however many checks read it.
"""

import collections
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucc
import ucc.cli
import ucc.setfamily
from tests import pair_oracles as oracle
from tests.conftest import DATA_DIR

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
ENTROPY_TOL = 1e-12


def assert_matches_oracle(fam: ucc.SetFamily) -> None:
    assert fam.union_counts == oracle.pair_union_counts(fam)
    closure = oracle.closure_fraction(fam)
    assert ucc.closure_fraction(fam) == closure
    assert ucc.closure_fraction_unordered(fam) == oracle.closure_fraction_unordered(fam)
    assert ucc.is_union_closed(fam) == oracle.is_union_closed(fam)
    if fam.size >= 2:
        assert ucc.check_theorem(fam).epsilon == 1 - closure
    entropy = oracle.union_entropy(fam)
    chain = ucc.chain_rule_check(fam)
    for rep in (ucc.check_lower_bound(fam), ucc.check_upper_bound(fam), chain):
        assert rep.lhs_bits == pytest.approx(entropy, abs=ENTROPY_TOL)
    assert chain.inputs["chain_sum_bits"] == pytest.approx(
        oracle.chain_sum(fam), abs=ENTROPY_TOL)
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
    assert a.union_counts == b.union_counts
    assert ucc.closure_fraction(a) == ucc.closure_fraction(b)
    assert ucc.closure_fraction_unordered(a) == ucc.closure_fraction_unordered(b)
    for check in (ucc.check_lower_bound, ucc.check_upper_bound):
        assert check(a).lhs_bits == pytest.approx(check(b).lhs_bits, abs=ENTROPY_TOL)
    ca, cb = ucc.chain_rule_check(a), ucc.chain_rule_check(b)
    assert ca.lhs_bits == pytest.approx(cb.lhs_bits, abs=ENTROPY_TOL)
    assert ca.rhs_bits == pytest.approx(cb.rhs_bits, abs=ENTROPY_TOL)
    assert ca.inputs["chain_sum_bits"] == pytest.approx(
        cb.inputs["chain_sum_bits"], abs=ENTROPY_TOL)


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
    assert fam.union_counts == {u: 3 ** bin(u).count("1") for u in range(1 << n)}
    assert ucc.closure_fraction(fam) == 1
    assert ucc.closure_fraction_unordered(fam) == 1
    chain = ucc.chain_rule_check(fam)
    assert chain.satisfied
    assert chain.lhs_bits == pytest.approx(n * ucc.binary_entropy(0.25), abs=ENTROPY_TOL)
    assert chain.rhs_bits == pytest.approx(chain.lhs_bits, abs=ENTROPY_TOL)


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
    assert counts == oracle.pair_union_counts(fam)
    assert_matches_oracle(fam)


def test_dense_regime_capped_by_universe_width(monkeypatch):
    import numpy as np

    def no_dense(*args, **kwargs):
        raise AssertionError("dense transform above the cell cap")

    fam = ucc.SetFamily.from_masks(4, range(8))  # 2^4 <= |F|^2, 8 distinct unions
    assert _is_dense(fam)
    monkeypatch.setattr(ucc.setfamily, "_MAX_CELLS", 8)
    monkeypatch.setattr(np, "zeros", no_dense)
    assert not _is_dense(fam)
    # a histogram of exactly _MAX_CELLS cells is still built
    assert ucc.setfamily.pair_union_counts(4, fam.sets) == oracle.pair_union_counts(fam)


# one cell cap refuses oversized histograms, whichever verb asks first

SMALL_CAP = 4


@pytest.fixture()
def small_cap(monkeypatch):
    monkeypatch.setattr(ucc.setfamily, "_MAX_CELLS", SMALL_CAP)


def test_pairwise_regime_stops_at_the_cell_cap(small_cap, monkeypatch):
    import numpy as np

    blocks: list[int] = []
    unique = np.unique

    def counting(*args, **kwargs):
        blocks.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(ucc.setfamily, "_PAIR_BLOCK_CELLS", 8)  # one row per block
    monkeypatch.setattr(np, "unique", counting)
    # the first row, 0 | B, already yields 8 distinct unions
    with pytest.raises(ucc.CapExceededError, match=f"cap of {SMALL_CAP} cells"):
        ucc.setfamily.pair_union_counts(3, range(8))
    assert len(blocks) == 1


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
    ucc.dump_family(fam, str(path))
    assert ucc.cli.run_cli(["entropy", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["family_size"] == size
    for key in ("lower_bound", "upper_bound", "chain_rule"):
        assert obj[key]["satisfied"] is True
    assert sum(fam.union_counts.values()) == size ** 2


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


def test_import_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ucc.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
