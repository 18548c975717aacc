"""SplitMix64 and seed derivation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucc.rng import SplitMix64, derive_seed

# first outputs of the reference splitmix64 stream for seed 0, as published
# with the original C implementation
SEED0_STREAM = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_reference_stream_seed_zero():
    rng = SplitMix64(0)
    assert tuple(rng.next64() for _ in range(4)) == SEED0_STREAM


def test_streams_are_reproducible():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next64() for _ in range(50)] == [b.next64() for _ in range(50)]


def test_seed_is_reduced_mod_2_64():
    assert SplitMix64(1 << 64).next64() == SplitMix64(0).next64()


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50)
def test_random_unit_interval(seed):
    u = SplitMix64(seed).random()
    assert 0.0 <= u < 1.0


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 300))
@settings(max_examples=100)
def test_randbelow_range(seed, n):
    rng = SplitMix64(seed)
    for _ in range(10):
        assert 0 <= rng.randbelow(n) < n


def test_randbelow_handles_big_integers():
    # 2^64 is the widest range; shuffle_prefix over [63] draws below 2^63
    n = 1 << 64
    rng = SplitMix64(3)
    vals = {rng.randbelow(n) for _ in range(5)}
    assert all(0 <= v < n for v in vals)
    assert any(v > (1 << 62) for v in vals)  # the top bits are drawn too


def test_randbelow_covers_small_range():
    rng = SplitMix64(11)
    seen = {rng.randbelow(3) for _ in range(200)}
    assert seen == {0, 1, 2}


@given(st.integers(min_value=1, max_value=64))
@settings(max_examples=50)
def test_getrandbits_width(k):
    rng = SplitMix64(99)
    for _ in range(5):
        assert 0 <= rng.getrandbits(k) < (1 << k)


def test_draws_are_at_most_one_word():
    rng = SplitMix64(5)
    for k in (0, 65):
        with pytest.raises(ValueError, match="1..64"):
            rng.getrandbits(k)
    for n in (0, (1 << 64) + 1):
        with pytest.raises(ValueError, match="1..2"):
            rng.randbelow(n)


def test_shuffle_prefix_is_a_partial_permutation():
    rng = SplitMix64(8)
    n, k = 1000, 50
    prefix = rng.shuffle_prefix(n, k)
    assert len(prefix) == k
    assert len(set(prefix)) == k
    assert all(0 <= v < n for v in prefix)


def test_shuffle_prefix_full_length_is_a_permutation():
    prefix = SplitMix64(21).shuffle_prefix(8, 8)
    assert sorted(prefix) == list(range(8))


def test_derive_seed_depends_on_order_and_values():
    base = derive_seed(7, 1)
    assert base == derive_seed(7, 1) == 10152435436223366481  # every fuzz stream
    assert base != derive_seed(1, 7)
    assert base != derive_seed(7, 2)
    assert base != derive_seed(8, 1)
    with pytest.raises(TypeError):
        derive_seed(7, 1, 2)  # one stream index, no more


def test_derive_seed_output_is_64_bit():
    for args in ((0, 0), (2**64 - 1, 5), (42, 2**64 - 1)):
        s = derive_seed(*args)
        assert 0 <= s < (1 << 64)


def test_shuffle_prefix_rejects_bad_counts():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.shuffle_prefix(4, 5)
