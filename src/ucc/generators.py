"""Family constructions: the near-extremal slice example and test corpora.

The slice example over [n] is the union of two components: F1, all sets of
one fixed size k, and F2, all sets of size at least m.  :class:`ExampleSpec`
holds n, k and m, and sets the defaults k = round(psi n + n^(2/3)), ties
up, and m = ceil((1 - psi) n).  Unions of two F1-members concentrate
around size 2k - k^2/n, and with k/n near psi that is (2 psi - psi^2) n =
(1 - psi) n, right at the F2 threshold: the family is approximately union
closed while its densest element frequency stays near psi + n^(-1/3).
:func:`slice_example` materializes it at desk scale; :func:`slice_stats`
gives its sizes, and its closure deficit and maximal frequency as exact
Fractions, at any n from binomial arithmetic alone.

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
    "RANDOM_KINDS",
    "ExampleSpec",
    "ExampleStats",
    "slice_example",
    "slice_stats",
    "enumerate_union_closed",
    "random_families",
]

#: most sets slice_example builds
_MATERIALIZE_CAP = 5_000_000
RANDOM_KINDS = ("uniform", "closure-of-random", "noisy-uc")
#: probability that noisy-uc deletes a member other than the top
_NOISY_RHO = 0.25
#: largest n that slice_stats takes: 0.75 s at n = 64,000 and 4.1 s at
#: 2^17 on a 2-vCPU Xeon, its time growing a little faster than n^2
_MAX_SLICE_N = 1 << 17


class _ExampleSpecFields(NamedTuple):
    n: int
    k: int
    m: int


class ExampleSpec(_ExampleSpecFields):
    """Parameters of the slice example (all k-sets of [n] plus every set of
    size at least m).

    An omitted k defaults to psi n + n^(2/3), rounded to nearest with ties
    up, and an omitted m to ceil((1 - psi) n); ``ExampleSpec(n).k`` and
    ``.m`` read them.  Raises ValueError, its message starting
    "degenerate slice example", unless 0 < k < m <= n.  The default k
    reaches the default m at every n up to 79 but 73, 75 and 78, which is
    a statement about the construction being asymptotic, not a bug, so the
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
            k = math.floor(PSI * n + n ** (2.0 / 3.0) + 0.5)
        if m is None:
            m = math.ceil((1.0 - PSI) * n)
        if not 0 < k < m <= n:
            raise ValueError(
                f"degenerate slice example: need 0 < k < m <= n, got "
                f"k={k}, m={m}, n={n}{hint}")
        return super().__new__(cls, n, k, m)


class ExampleStats(NamedTuple):
    """Exact statistics of one slice example.

    ``log2_f1`` and ``log2_f2`` are log2 |F1| and log2 |F2|; their
    difference is the log2 of the size ratio |F2| / |F1|, which as a float
    underflows to 0.0 by n = 80,000.  ``max_freq_exact`` is the exact
    frequency that every element shares, by symmetry and double counting:
    (k |F1| + sum_{j >= m} j C(n, j)) / (n |F|).  ``closure_deficit`` is
    the exact ordered-pair deficit eps, the share of the |F|^2 ordered pairs
    whose union leaves the family, as
    :attr:`~ucc.setfamily.SetFamily.closure_deficit` gives it on the
    materialized example; ``log2_inv_closure_deficit`` is log2(1/eps) from
    its integer numerator and denominator, None when eps = 0.  ``delta`` is
    the theorem's term for this eps and |F|; its bound is ``PSI - delta``.
    """

    n: int
    k: int
    m: int
    log2_f1: float
    log2_f2: float
    max_freq_exact: Fraction
    closure_deficit: Fraction
    log2_inv_closure_deficit: float | None
    delta: float


def slice_example(spec: ExampleSpec) -> SetFamily:
    """Materialize the slice example as a SetFamily.

    Refuses to build more than ``_MATERIALIZE_CAP`` sets or any universe
    beyond the word cap; :func:`slice_stats` covers the example at any n.
    """
    n, k, m = spec.n, spec.k, spec.m
    if n > WORD_CAP:
        raise CapExceededError(
            f"the slice example is materialized only for n <= {WORD_CAP}, got {n}; "
            f"slice_stats gives its statistics at any n")
    total = math.comb(n, k) + sum(math.comb(n, j) for j in range(m, n + 1))
    if total > _MATERIALIZE_CAP:
        raise CapExceededError(
            f"explicit slice example would have {total} sets, cap is {_MATERIALIZE_CAP}")
    masks = [sum(1 << p for p in combo) for combo in combinations(range(n), k)]
    for j in range(m, n + 1):
        masks.extend(sum(1 << p for p in combo) for combo in combinations(range(n), j))
    return SetFamily.from_masks(n, masks)


def slice_stats(spec: ExampleSpec) -> ExampleStats:
    """Exact sizes, closure deficit and maximal frequency of a slice example.

    A union with a member of size >= m has size >= m, so it stays in the
    family, and two equal k-sets give a k-set back.  The only ordered
    pairs whose union misses the family are two k-sets overlapping in x
    elements with k < 2k - x < m.  There are C(n, k) T_x such pairs for
    each x, with T_x = C(k, x) C(n-k, k-x), so

        eps = C(n, k) sum_x T_x / |F|^2.

    The terms follow one ratio recurrence in x, in exact integers:
    T_{x+1} = T_x (k-x)^2 / ((x+1)(n-2k+x+1)), where the division is exact
    because T_{x+1} is an integer.  The family is invariant under
    relabeling [n], so by double counting every element lies in
    sum_{A in F} |A| / n members, and

        max_freq = (k |F1| + sum_{j >= m} j C(n, j)) / (n |F|),

    whose tail sum comes from the same pass over C(n, j) as |F2|.  An n
    above ``_MAX_SLICE_N`` raises :class:`~ucc.CapExceededError` before
    any binomial is computed.
    """
    n, k, m = spec.n, spec.k, spec.m
    if n > _MAX_SLICE_N:
        raise CapExceededError(
            f"slice example of n={n} exceeds cap of n={_MAX_SLICE_N}")
    size_f1 = math.comb(n, k)
    size_f2 = 0
    sizes = k * size_f1  # sum of |A| over the members A
    w = math.comb(n, m)
    for j in range(m, n + 1):  # w = C(n, j)
        size_f2 += w
        sizes += j * w
        w = w * (n - j) // (j + 1)
    size = size_f1 + size_f2

    lo = max(0, 2 * k - m + 1, 2 * k - n)  # unions below m, and overlaps that fit in [n]
    term = math.comb(k, lo) * math.comb(n - k, k - lo)
    missing = 0
    for x in range(lo, k):  # x = k is A = B, whose union is a member
        missing += term
        term = term * (k - x) ** 2 // ((x + 1) * (n - 2 * k + x + 1))
    eps = Fraction(size_f1 * missing, size * size)
    return ExampleStats(
        n=n, k=k, m=m,
        log2_f1=math.log2(size_f1),
        log2_f2=math.log2(size_f2),
        max_freq_exact=Fraction(sizes, n * size),
        closure_deficit=eps,
        log2_inv_closure_deficit=(math.log2(eps.denominator) - math.log2(eps.numerator)
                                  if eps else None),
        delta=theorem_delta(eps, size),
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


def random_families(n: int, size: int, count: int, seed: int,
                    kind: str) -> Iterator[SetFamily]:
    """Seeded stream of ``count`` random families over [n].

    Kinds: ``uniform`` (distinct masks, uniform), ``closure-of-random``
    (union closure of a small uniform seed family), ``noisy-uc`` (a
    closure with each member but its top, the union of all members,
    deleted independently with probability ``_NOISY_RHO`` = 0.25; the top
    survives, so unions of survivors mostly stay inside and the closure
    deficit stays small).  An unknown ``kind`` raises ValueError, naming
    the kinds, before anything is drawn.

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
    if kind == "all":
        wants = [count // len(RANDOM_KINDS)] * len(RANDOM_KINDS)
        wants[-1] += count % len(RANDOM_KINDS)
        return chain.from_iterable(
            random_families(n, size, want, derive_seed(seed, pos), each)
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
        keep = [mask for mask in fam.sets
                if mask == top or rng.random() >= _NOISY_RHO]
        return SetFamily(fam.universe_size, tuple(keep))

    return (build(i) for i in range(count))
