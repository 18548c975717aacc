"""Family constructions: the near-extremal slice example and test corpora.

The slice example over [n] is the union of two components: F1, all sets of
one fixed size k (default round(psi n + n^(2/3)), ties up), and F2, all
sets of size at least m (default ceil((1 - psi) n)).  Unions of two
F1-members concentrate around size 2k - k^2/n, and with k/n near psi that
is (2 psi - psi^2) n = (1 - psi) n, right at the F2 threshold: the family
is approximately union closed while its densest element frequency stays
near psi + n^(-1/3).  It exists in two modes: explicit (materialized
masks, desk scale only) and implicit (a handle with membership and uniform
sampling, good for n in the thousands).

The corpus side is exhaustive union-closed enumeration at n <= 4 and three
seeded random family kinds for fuzzing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .analytic.scalars import PSI
from .rng import SplitMix64, derive_seed
from .setfamily import (
    WORD_CAP,
    CapExceededError,
    SetFamily,
    union_closure,
)

__all__ = [
    "DEFAULT_MATERIALIZE_CAP",
    "DEFAULT_SHARDS",
    "RANDOM_KINDS",
    "DegenerateSpecError",
    "ExampleSpec",
    "ExampleStats",
    "ImplicitSliceFamily",
    "default_slice_level",
    "default_threshold",
    "slice_example",
    "slice_max_frequency",
    "example_stats",
    "enumerate_union_closed",
    "random_families",
]

DEFAULT_MATERIALIZE_CAP = 5_000_000
DEFAULT_SHARDS = 16
RANDOM_KINDS = ("uniform", "closure-of-random", "noisy-uc")

#: 99% two-sided normal quantile for the Monte Carlo confidence halfwidth.
_Z99 = 2.5758293035489004


class DegenerateSpecError(ValueError):
    """The slice example needs 0 < k < m <= n; small n cannot provide it."""


def default_slice_level(n: int) -> int:
    """Default k: psi n + n^(2/3), rounded to nearest with ties up."""
    return math.floor(PSI * n + n ** (2.0 / 3.0) + 0.5)


def default_threshold(n: int) -> int:
    """Default m: ceil((1 - psi) n)."""
    return math.ceil((1.0 - PSI) * n)


@dataclass(frozen=True)
class ExampleSpec:
    """Parameters of the slice example; k and m default from n.

    Raises :class:`DegenerateSpecError` unless 0 < k < m <= n.  The
    default k overtakes the default m for n below roughly 50, which is a
    statement about the construction being asymptotic, not a bug, so the
    failure is loud instead of clamped.
    """

    n: int
    k: int | None = None
    m: int | None = None
    mode: str = "implicit"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.mode not in ("explicit", "implicit"):
            raise ValueError(f"mode must be 'explicit' or 'implicit', got {self.mode!r}")
        if self.k is None:
            object.__setattr__(self, "k", default_slice_level(self.n))
        if self.m is None:
            object.__setattr__(self, "m", default_threshold(self.n))
        if not 0 < self.k < self.m <= self.n:
            raise DegenerateSpecError(
                f"degenerate slice example: need 0 < k < m <= n, got "
                f"k={self.k}, m={self.m}, n={self.n} "
                f"(the default spec only separates for larger n)")


@dataclass(frozen=True)
class ExampleStats:
    """Measured and exact statistics of one slice example."""

    n: int
    k: int
    m: int
    log2_f1: float
    log2_f2: float
    size_ratio: float
    closure_fraction_estimate: float
    ci_halfwidth: float
    max_freq_exact: float
    samples: int
    seed: int
    shards: int


def _tail_weights(n: int, m: int) -> list[int]:
    """[C(n, m), C(n, m+1), ..., C(n, n)] by the ratio recurrence."""
    w = [math.comb(n, m)]
    for j in range(m, n):
        w.append(w[-1] * (n - j) // (j + 1))
    return w


class ImplicitSliceFamily:
    """Symbolic handle to a slice example too large to materialize.

    Supports membership by popcount and uniform sampling of literal masks
    (component chosen by exact big-integer weights, then a uniform set of
    the drawn size).  No iteration: the family typically has far more
    members than atoms in reach.
    """

    def __init__(self, spec: ExampleSpec) -> None:
        self.spec = spec
        self.n = spec.n
        self.k = spec.k
        self.m = spec.m
        self.size_f1 = math.comb(self.n, self.k)
        tail = _tail_weights(self.n, self.m)
        self.size_f2 = sum(tail)
        self.size = self.size_f1 + self.size_f2
        cum = []
        acc = 0
        for w in tail:
            acc += w
            cum.append(acc)
        self._tail_cum = cum

    def __contains__(self, mask: int) -> bool:
        if not 0 <= mask < 1 << self.n:
            return False
        size = mask.bit_count()
        return size == self.k or size >= self.m

    def sample_size(self, rng: SplitMix64) -> int:
        """Draw the size of a uniform member (sufficient for closure tests)."""
        r = rng.randbelow(self.size)
        if r < self.size_f1:
            return self.k
        r -= self.size_f1
        return self.m + bisect_right(self._tail_cum, r)

    def sample(self, rng: SplitMix64) -> int:
        """Draw a uniform member as a literal mask."""
        return rng.sample_mask(self.n, self.sample_size(rng))


def slice_example(spec: ExampleSpec, cap: int = DEFAULT_MATERIALIZE_CAP):
    """Build the slice example: a SetFamily (explicit) or a handle (implicit).

    Explicit mode refuses to materialize more than ``cap`` sets or any
    universe beyond the word cap; implicit mode has no size limits.
    """
    if spec.mode == "implicit":
        return ImplicitSliceFamily(spec)
    n, k, m = spec.n, spec.k, spec.m
    if n > WORD_CAP:
        raise CapExceededError(
            f"explicit mode needs n <= {WORD_CAP}, got {n}; use implicit mode")
    total = math.comb(n, k) + sum(_tail_weights(n, m))
    if total > cap:
        raise CapExceededError(
            f"explicit slice example would have {total} sets, cap is {cap}")
    masks = [sum(1 << p for p in combo) for combo in combinations(range(n), k)]
    for j in range(m, n + 1):
        masks.extend(sum(1 << p for p in combo) for combo in combinations(range(n), j))
    return SetFamily.from_masks(n, masks)


def slice_max_frequency(spec: ExampleSpec) -> Fraction:
    """Exact maximal element frequency of the slice example.

    By symmetry every element has the same frequency:
    [C(n-1, k-1) + sum_{j >= m} C(n-1, j-1)] / [C(n, k) + sum_{j >= m} C(n, j)].
    """
    n, k, m = spec.n, spec.k, spec.m
    containing = math.comb(n - 1, k - 1) + sum(_tail_weights(n - 1, m - 1))
    total = math.comb(n, k) + sum(_tail_weights(n, m))
    return Fraction(containing, total)


def _hyper_cdf(n: int, a: int, b: int) -> tuple[int, list[float]]:
    """CDF table of the overlap |A & B| for uniform a- and b-subsets of [n].

    Exact big-integer hypergeometric weights, cumulated, then rounded once
    through Fraction -> float (correctly rounded, platform independent).
    Returns (lowest overlap, cumulative probabilities).
    """
    lo = max(0, a + b - n)
    hi = min(a, b)
    c1 = math.comb(a, lo)
    c2 = math.comb(n - a, b - lo)
    den = math.comb(n, b)
    acc = 0
    cdf: list[float] = []
    for x in range(lo, hi + 1):
        acc += c1 * c2
        cdf.append(float(Fraction(acc, den)))
        if x < hi:
            c1 = c1 * (a - x) // (x + 1)
            c2 = c2 * (b - x) // (n - a - b + x + 1)
    cdf[-1] = 1.0
    return lo, cdf


def example_stats(spec: ExampleSpec, samples: int, seed: int,
                  shards: int = DEFAULT_SHARDS) -> ExampleStats:
    """Exact sizes and a Monte Carlo closure estimate for a slice example.

    The closure indicator for a sampled pair depends only on the size of
    the union (the family is a union of full levels), and the overlap of
    two uniform fixed-size sets is hypergeometric given their sizes, so
    the estimator samples (size_A, size_B, overlap) instead of 1000-bit
    masks.  Same distribution as literal sampling, orders of magnitude
    faster.  Samples are split across a fixed number of shards with
    derived per-shard seeds, so the result is independent of any later
    parallel execution layout.
    """
    if samples < 1_000:
        raise ValueError("samples must be at least 1000")
    if shards < 1:
        raise ValueError("shards must be positive")
    # union-size concentration: two k-slices typically overlap near k^2/n,
    # putting the union near 2k - k^2/n; with k/n -> psi that approaches
    # (2 psi - psi^2) n = (1 - psi) n, exactly the F2 threshold rate
    assert abs((1.0 - PSI) - (2.0 * PSI - PSI * PSI)) < 1e-15

    handle = ImplicitSliceFamily(spec)
    n, k, m = spec.n, spec.k, spec.m
    log2_f1 = math.log2(handle.size_f1)
    log2_f2 = math.log2(handle.size_f2)
    size_ratio = float(Fraction(handle.size_f2, handle.size_f1))
    max_freq = float(slice_max_frequency(spec))

    tables: dict[tuple[int, int], tuple[int, list[float]]] = {}
    hits = 0
    base, extra = divmod(samples, shards)
    for shard in range(shards):
        rng = SplitMix64(derive_seed(seed, shard))
        for _ in range(base + (1 if shard < extra else 0)):
            a = handle.sample_size(rng)
            b = handle.sample_size(rng)
            key = (a, b) if a <= b else (b, a)
            table = tables.get(key)
            if table is None:
                table = tables[key] = _hyper_cdf(n, key[0], key[1])
            lo, cdf = table
            overlap = lo + bisect_right(cdf, rng.random())
            union_size = a + b - overlap
            if union_size == k or union_size >= m:
                hits += 1

    p_hat = hits / samples
    halfwidth = _Z99 * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return ExampleStats(
        n=n, k=k, m=m,
        log2_f1=log2_f1,
        log2_f2=log2_f2,
        size_ratio=size_ratio,
        closure_fraction_estimate=p_hat,
        ci_halfwidth=halfwidth,
        max_freq_exact=max_freq,
        samples=samples,
        seed=seed,
        shards=shards,
    )


def enumerate_union_closed(n: int, include_empty_set: bool = True) -> Iterator[SetFamily]:
    """Yield every nonempty union-closed family over [n], n <= 4.

    Families are encoded as subsets of the 2^n masks and scanned in
    increasing encoding order, which is canonical and stable.  With
    ``include_empty_set`` false, families containing the empty set as a
    member are skipped (the empty set changes nothing about closure).
    """
    if not 1 <= n <= 4:
        raise ValueError(f"enumeration is exhaustive only for n in 1..4, got {n}")
    num_masks = 1 << n
    for encoding in range(1, 1 << num_masks):
        if not include_empty_set and encoding & 1:
            continue
        members = []
        rest = encoding
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        closed = True
        for i, a in enumerate(members):
            for b in members[i:]:
                if not encoding >> (a | b) & 1:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            yield SetFamily(n, tuple(members))


def _maximal_flags(masks: tuple[int, ...]) -> list[bool]:
    return [not any(other != m and m | other == other for other in masks)
            for m in masks]


def random_families(n: int, size: int, count: int, seed: int, kind: str,
                    rho: float = 0.25) -> Iterator[SetFamily]:
    """Seeded stream of ``count`` random families over [n].

    Kinds: ``uniform`` (distinct masks, uniform), ``closure-of-random``
    (union closure of a small uniform seed family), ``noisy-uc`` (a
    closure with each non-maximal member deleted independently with
    probability ``rho``; maximal members survive, so unions of survivors
    mostly stay inside and the closure deficit stays small).

    Each family draws from a substream derived from (seed, index), so the
    stream is deterministic and prefix-stable: consuming only the first
    few families yields exactly what a full run would have yielded.
    """
    if not 1 <= n <= WORD_CAP:
        raise ValueError(f"n must be in 1..{WORD_CAP}")
    if size < 1 or count < 1:
        raise ValueError("size and count must be positive")
    if size > 1 << n:
        raise ValueError(f"size {size} exceeds the 2^{n} distinct masks")
    if kind not in RANDOM_KINDS:
        raise ValueError(f"kind must be one of {RANDOM_KINDS}, got {kind!r}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")

    def build(index: int) -> SetFamily:
        rng = SplitMix64(derive_seed(seed, index))
        masks = rng.shuffle_prefix(1 << n, size)
        fam = SetFamily.from_masks(n, masks)
        if kind == "uniform":
            return fam
        fam = union_closure(fam)
        if kind == "closure-of-random":
            return fam
        keep = []
        for mask, is_max in zip(fam.sets, _maximal_flags(fam.sets)):
            if is_max or rng.random() >= rho:
                keep.append(mask)
        return SetFamily(fam.universe_size, tuple(keep))

    return (build(i) for i in range(count))
