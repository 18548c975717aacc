"""Family constructions: the near-extremal slice example and test corpora.

The slice example over [n] is the union of two components: F1, all sets of
one fixed size k (default round(psi n + n^(2/3)), ties up), and F2, all
sets of size at least m (default ceil((1 - psi) n)).  Unions of two
F1-members concentrate around size 2k - k^2/n, and with k/n near psi that
is (2 psi - psi^2) n = (1 - psi) n, right at the F2 threshold: the family
is approximately union closed while its densest element frequency stays
near psi + n^(-1/3).  :func:`slice_example` materializes it at desk scale;
:func:`slice_stats` gives its sizes, exact closure deficit and maximal
frequency at any n from binomial arithmetic alone.

The corpus side is exhaustive union-closed enumeration at n <= 5 and three
seeded random family kinds for fuzzing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterator, NamedTuple

from . import CapExceededError
from .analytic.scalars import PSI
from .entropy import theorem_delta
from .rng import SplitMix64, derive_seed
from .setfamily import (
    WORD_CAP,
    SetFamily,
    union_closure,
)

__all__ = [
    "DEFAULT_MATERIALIZE_CAP",
    "RANDOM_KINDS",
    "DegenerateSpecError",
    "ExampleSpec",
    "ExampleStats",
    "default_slice_level",
    "default_threshold",
    "slice_example",
    "slice_max_frequency",
    "slice_stats",
    "enumerate_union_closed",
    "random_families",
]

DEFAULT_MATERIALIZE_CAP = 5_000_000
RANDOM_KINDS = ("uniform", "closure-of-random", "noisy-uc")


class DegenerateSpecError(ValueError):
    """The slice example needs 0 < k < m <= n; small n cannot provide it."""


def default_slice_level(n: int) -> int:
    """Default k: psi n + n^(2/3), rounded to nearest with ties up."""
    return math.floor(PSI * n + n ** (2.0 / 3.0) + 0.5)


def default_threshold(n: int) -> int:
    """Default m: ceil((1 - psi) n)."""
    return math.ceil((1.0 - PSI) * n)


class _ExampleSpecFields(NamedTuple):
    n: int
    k: int
    m: int


class ExampleSpec(_ExampleSpecFields):
    """Parameters of the slice example (all k-sets of [n] plus every set of
    size at least m); k and m default from n.

    Raises :class:`DegenerateSpecError` unless 0 < k < m <= n.  The
    default k overtakes the default m for n below roughly 50, which is a
    statement about the construction being asymptotic, not a bug, so the
    failure is loud instead of clamped.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int | None = None,
                m: int | None = None) -> ExampleSpec:
        if n < 1:
            raise ValueError("n must be positive")
        # the hint is about the defaults, so it goes only with the default spec
        hint = (" (the default spec only separates for larger n)"
                if k is None and m is None else "")
        if k is None:
            k = default_slice_level(n)
        if m is None:
            m = default_threshold(n)
        if not 0 < k < m <= n:
            raise DegenerateSpecError(
                f"degenerate slice example: need 0 < k < m <= n, got "
                f"k={k}, m={m}, n={n}{hint}")
        return super().__new__(cls, n, k, m)


class ExampleStats(NamedTuple):
    """Exact statistics of one slice example.

    ``closure_deficit`` is the exact ordered-pair deficit eps =
    1 - closure_fraction; ``log2_inv_closure_deficit`` is log2(1/eps) from
    its integer numerator and denominator, None when eps = 0.  ``delta``
    and ``psi_minus_delta`` are the theorem's terms for this eps and |F|.
    """

    n: int
    k: int
    m: int
    log2_f1: float
    log2_f2: float
    size_ratio: float
    max_freq_exact: float
    closure_deficit: Fraction
    log2_inv_closure_deficit: float | None
    delta: float
    psi_minus_delta: float


def _tail_weights(n: int, m: int) -> list[int]:
    """[C(n, m), C(n, m+1), ..., C(n, n)] by the ratio recurrence."""
    w = [math.comb(n, m)]
    for j in range(m, n):
        w.append(w[-1] * (n - j) // (j + 1))
    return w


def slice_example(spec: ExampleSpec, cap: int = DEFAULT_MATERIALIZE_CAP) -> SetFamily:
    """Materialize the slice example as a SetFamily.

    Refuses to build more than ``cap`` sets or any universe beyond the
    word cap; :func:`slice_stats` covers the example at any n.
    """
    n, k, m = spec.n, spec.k, spec.m
    if n > WORD_CAP:
        raise CapExceededError(
            f"the slice example is materialized only for n <= {WORD_CAP}, got {n}; "
            f"slice_stats gives its statistics at any n")
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
    size = math.comb(spec.n, spec.k) + sum(_tail_weights(spec.n, spec.m))
    return _max_frequency(spec, size)


def _max_frequency(spec: ExampleSpec, size: int) -> Fraction:
    """The frequency of every element, given the family size |F|."""
    n, k, m = spec.n, spec.k, spec.m
    return Fraction(math.comb(n - 1, k - 1) + sum(_tail_weights(n - 1, m - 1)), size)


def slice_stats(spec: ExampleSpec) -> ExampleStats:
    """Exact sizes, closure deficit and maximal frequency of a slice example.

    A union with a member of size >= m has size >= m, so it stays in the
    family, and two equal k-sets give a k-set back.  The only ordered
    pairs whose union misses the family are two k-sets overlapping in x
    elements with k < 2k - x < m.  There are C(n, k) C(k, x) C(n-k, k-x)
    such pairs for each x, so

        eps = C(n, k) sum_x C(k, x) C(n-k, k-x) / |F|^2.

    The terms come from the ratio recurrence in x, in exact integers.
    """
    n, k, m = spec.n, spec.k, spec.m
    size_f1 = math.comb(n, k)
    size_f2 = sum(_tail_weights(n, m))
    size = size_f1 + size_f2

    lo = max(0, 2 * k - m + 1, 2 * k - n)  # unions below m, and overlaps that fit in [n]
    c1 = math.comb(k, lo)
    c2 = math.comb(n - k, k - lo)
    missing = 0
    for x in range(lo, k):  # x = k is A = B, whose union is a member
        missing += c1 * c2
        c1 = c1 * (k - x) // (x + 1)
        c2 = c2 * (k - x) // (n - 2 * k + x + 1)
    eps = Fraction(size_f1 * missing, size * size)
    delta = theorem_delta(eps, size)
    return ExampleStats(
        n=n, k=k, m=m,
        log2_f1=math.log2(size_f1),
        log2_f2=math.log2(size_f2),
        size_ratio=float(Fraction(size_f2, size_f1)),
        max_freq_exact=float(_max_frequency(spec, size)),
        closure_deficit=eps,
        log2_inv_closure_deficit=(math.log2(eps.denominator) - math.log2(eps.numerator)
                                  if eps else None),
        delta=delta,
        psi_minus_delta=PSI - delta,
    )


def enumerate_union_closed(n: int) -> Iterator[SetFamily]:
    """Yield every nonempty union-closed family over [n], n <= 5.

    A family encodes as the sum of 2^mask over its members, and families
    come in increasing encoding order, which is canonical and stable.  A
    depth-first walk decides the masks from 2^n - 1 down to 0: each is
    first left out, then taken in if its union with every member taken so
    far is a member.  Such a union is never below a taken member, so it is
    already decided, and the walk's leaves are exactly the union-closed
    families, each once.  Its cost follows their number (2 M(n) - 1, M the
    Moore-family count), not the 2^(2^n) encodings.
    """
    if not 1 <= n <= 5:
        raise ValueError(f"enumeration is exhaustive only for n in 1..5, got {n}")
    taken: list[int] = []  # the members so far, decreasing
    encoding = 0
    # masks left out whose take-in branch is still to walk, smallest on top
    pending = list(range((1 << n) - 1, -1, -1))
    while pending:
        mask = pending.pop()
        while taken and taken[-1] < mask:  # undo what was decided below mask
            encoding ^= 1 << taken.pop()
        for b in taken:
            if not encoding >> (mask | b) & 1:
                break
        else:
            taken.append(mask)
            encoding |= 1 << mask
            yield SetFamily(n, tuple(reversed(taken)))
            pending.extend(range(mask - 1, -1, -1))


def random_families(n: int, size: int, count: int, seed: int, kind: str,
                    rho: float = 0.25) -> Iterator[SetFamily]:
    """Seeded stream of ``count`` random families over [n].

    Kinds: ``uniform`` (distinct masks, uniform), ``closure-of-random``
    (union closure of a small uniform seed family), ``noisy-uc`` (a
    closure with each member but its top, the union of all members,
    deleted independently with probability ``rho``; the top survives, so
    unions of survivors mostly stay inside and the closure deficit stays
    small).

    Each family draws from a substream derived from (seed, index), so the
    stream is deterministic and prefix-stable: consuming only the first
    few families yields exactly what a full run would have yielded.

    ``all`` chains one stream per kind, in ``RANDOM_KINDS`` order: each
    kind gets ``count // 3`` families and the last one the remainder too,
    the kind at position ``pos`` draws with seed ``derive_seed(seed, pos)``,
    and a kind that gets no family is skipped (so a count below 3 draws
    only ``noisy-uc``).  The split moves with ``count``, so this stream is
    not prefix-stable across counts.
    """
    if not 1 <= n <= WORD_CAP:
        raise ValueError(f"n must be in 1..{WORD_CAP}")
    if size < 1 or count < 1:
        raise ValueError("size and count must be positive")
    if size > 1 << n:
        raise ValueError(f"size {size} exceeds the 2^{n} distinct masks")
    if kind not in RANDOM_KINDS and kind != "all":
        raise ValueError(f"kind must be one of {RANDOM_KINDS} or 'all', got {kind!r}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    if kind == "all":
        wants = [count // len(RANDOM_KINDS)] * len(RANDOM_KINDS)
        wants[-1] += count % len(RANDOM_KINDS)
        return chain.from_iterable(
            random_families(n, size, want, derive_seed(seed, pos), each, rho)
            for pos, (each, want) in enumerate(zip(RANDOM_KINDS, wants)) if want)

    def build(index: int) -> SetFamily:
        rng = SplitMix64(derive_seed(seed, index))
        masks = rng.shuffle_prefix(1 << n, size)
        fam = SetFamily.from_masks(n, masks)
        if kind == "uniform":
            return fam
        fam = union_closure(fam)
        if kind == "closure-of-random":
            return fam
        top = fam.sets[-1]  # the union of all members, the only maximal one
        keep = [mask for mask in fam.sets if mask == top or rng.random() >= rho]
        return SetFamily(fam.universe_size, tuple(keep))

    return (build(i) for i in range(count))
