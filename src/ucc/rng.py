"""Deterministic pseudo-randomness for the fuzz family streams.

Everything random in this package flows through SplitMix64 (Steele, Lea &
Flood's 64-bit mix, the seeding generator of the xoshiro family).  It is
integer-only, so streams are reproducible bit for bit across platforms and
Python versions, unlike ``random.Random`` whose float paths and state layout
we would rather not depend on.

Substreams are derived with :func:`derive_seed`, never by splitting state,
so consuming one stream can never shift another.
"""

from __future__ import annotations

__all__ = ["SplitMix64", "derive_seed"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, the canonical increment


def _mix(z: int) -> int:
    # fmix64 finalizer used by SplitMix64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Derive a child seed from ``seed`` and a stream index.

    Children are decorrelated by running the index through the SplitMix64
    finalizer before folding it in; ``derive_seed(s, i)`` and
    ``derive_seed(s, j)`` differ for i != j with overwhelming probability.
    """
    return _mix(_mix(seed & _MASK64) ^ _mix((index + _GAMMA) & _MASK64))


class SplitMix64:
    """Counter-based 64-bit generator with uniform helpers.

    >>> g = SplitMix64(42)
    >>> g.next64() == SplitMix64(42).next64()
    True
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next64() >> 11) * 2.0**-53

    def getrandbits(self, k: int) -> int:
        """Uniform integer in [0, 2^k) for 1 <= k <= 64: the top k bits of
        one draw."""
        if not 1 <= k <= 64:
            raise ValueError(f"k must be in 1..64, got {k}")
        return self.next64() >> (64 - k)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection; unbiased for any
        1 <= n <= 2^64."""
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"n must be in 1..2**64, got {n}")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        while True:
            r = self.getrandbits(k)
            if r < n:
                return r

    def shuffle_prefix(self, n: int, k: int) -> list[int]:
        """Uniform ordered sample of k distinct values from range(n).

        Partial Fisher-Yates over a sparse dict, so n may be as large as
        2^64 (one draw per value) as long as k is small.
        """
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        swapped: dict[int, int] = {}
        out = []
        for i in range(k):
            j = i + self.randbelow(n - i)
            out.append(swapped.get(j, j))
            swapped[j] = swapped.get(i, i)
        return out
