"""Entropy checks for the union of two independent uniform draws.

Let A and B be independent uniform draws from a family F.  The distribution
of A | B (bitwise union) is computed exactly: counts over all |F|^2 ordered
pairs, probabilities as Fractions.  The counts are the family's cached
pair-union histogram, :attr:`ucc.setfamily.SetFamily.union_counts`, built
once per family as an OR convolution by
:func:`ucc.setfamily.pair_union_counts`, whose cell cap is the only size
limit on these checks.  It is a pair of int64 arrays, the ascending unions
and their counts, and every check below reads those arrays directly, so a
family's pairs are counted once however many checks run.  H(A|B) itself is
the family's cached :attr:`~ucc.setfamily.SetFamily.union_entropy`, also
evaluated once.  Grouping (member unions, prefix cells) happens in numpy;
each entropy term is still a Python float from exact integer counts.  On
top of the histogram sit four checks, each returning a small report rather
than a bare bool so that callers and the CLI can show their work:

*   ``chain_rule_check``: the coordinate chain rule reproduces H(A|B)
    exactly, and conditioning each union bit on both full prefixes instead
    of its own can only lower the sum (a data-processing step).
*   ``check_lower_bound``: H(A|B) >= p/(2 phi) (H(A) + H(B)) with
    p = min_i Pr[element i missing from a draw] = 1 - max frequency.
*   ``check_upper_bound``: H(A|B) <= 2 eps log2(1/eps) + (1 + 2 eps) log2|F|
    where eps is the ordered-pair closure deficit; proved through the
    member-indicator decomposition, which is also verified as an exact
    identity here.  Inapplicable (reported, not failed) once eps >= 1/2.
*   ``check_theorem``: some element frequency reaches psi - delta with
    delta = 2 eps (1 + log(1/eps) / log|F|); vacuous when psi - delta <= 0.

Entropies are floats in bits (compensated summation over exact integer
counts); every report carries the tolerance it was judged against.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .analytic.scalars import HALF_INV_PHI, PSI, binary_entropy
from .setfamily import (
    SetFamily,
    _entropy_from_counts,
    _member_cells,
    closure_fraction,
    element_frequencies,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "UnionDistribution",
    "BoundReport",
    "TheoremReport",
    "union_distribution",
    "shannon_entropy",
    "chain_rule_check",
    "check_lower_bound",
    "check_upper_bound",
    "check_theorem",
    "theorem_delta",
]

DEFAULT_TOL = 1e-9

_HALF = Fraction(1, 2)


class UnionDistribution(NamedTuple):
    """Exact distribution of A | B for A, B independent uniform on F.

    ``unions`` (strictly ascending) and ``counts`` (all positive) are the
    family's cached, read-only histogram arrays, shared rather than copied,
    and ``entropy_bits`` is the family's cached
    :attr:`~ucc.setfamily.SetFamily.union_entropy`.
    """

    universe_size: int
    unions: np.ndarray
    counts: np.ndarray
    pair_count: int
    entropy_bits: float

    # compared and hashed by identity: tuple equality would compare the
    # arrays elementwise and raise on the ambiguous truth value
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def probs(self) -> dict[int, Fraction]:
        return {m: Fraction(c, self.pair_count)
                for m, c in zip(self.unions.tolist(), self.counts.tolist())}

    @property
    def support_size(self) -> int:
        return len(self.unions)


class BoundReport(NamedTuple):
    """One verified inequality: lhs <= rhs or lhs >= rhs, as named.

    ``margin_bits`` is oriented so that nonnegative means satisfied;
    ``satisfied`` allows the stated tolerance.  ``inputs`` carries the
    named scalars the bound was assembled from.  ``applicable`` is false
    when the hypothesis of the bound fails (never counted as a violation).
    """

    check: str
    lhs_bits: float
    rhs_bits: float
    margin_bits: float
    satisfied: bool
    applicable: bool
    tolerance: float
    inputs: dict[str, float]


class TheoremReport(NamedTuple):
    """Frequency bound max_freq >= psi - delta for one family."""

    family_size: int
    epsilon: Fraction
    delta: float
    psi_minus_delta: float
    max_freq: Fraction
    applicable: bool
    satisfied: bool
    tolerance: float


def union_distribution(family: SetFamily) -> UnionDistribution:
    """Exact union distribution; requires |F| >= 1 and a histogram within
    the kernel's cell cap (:class:`~ucc.setfamily.CapExceededError` otherwise)."""
    if family.size == 0:
        raise ValueError("union_distribution requires a nonempty family")
    unions, counts = family.union_counts
    return UnionDistribution(
        universe_size=family.universe_size,
        unions=unions,
        counts=counts,
        pair_count=family.size ** 2,
        entropy_bits=family.union_entropy,
    )


def shannon_entropy(dist) -> float:
    """Shannon entropy in bits of a distribution.

    Accepts a :class:`UnionDistribution`, a mapping from outcomes to
    probabilities, or a bare iterable of probabilities (Fractions or
    floats).  Probabilities must be nonnegative and sum to 1 (exactly for
    Fractions, within 1e-9 for floats).
    """
    if isinstance(dist, UnionDistribution):
        return dist.entropy_bits
    if isinstance(dist, Mapping):
        values = list(dist.values())
    else:
        values = list(dist)
    if not values:
        raise ValueError("empty distribution")
    exact = all(isinstance(v, (Fraction, int)) for v in values)
    for v in values:
        if v < 0:
            raise ValueError(f"negative probability {v}")
    total = sum(values) if exact else math.fsum(values)
    if exact:
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
    elif abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return -math.fsum(p * math.log2(p) for p in map(float, values) if p > 0.0)


def _weighted_fsum(terms: Iterable[tuple[float, int]]) -> float:
    """Correctly rounded sum of ``weight * term`` over (term, weight) pairs.

    Equal to ``math.fsum`` over every term repeated ``weight`` times, which
    is what summing cell by cell would give.  Finite floats are dyadic
    rationals, so the sum is accumulated exactly as an integer over a
    power-of-two denominator and rounded once by the final division.
    """
    num, den = 0, 1
    for term, weight in terms:
        n, d = term.as_integer_ratio()
        if d > den:
            num *= d // den
            den = d
        num += weight * n * (den // d)
    return num / den


def _prefix_mask(i: int) -> int:
    return (1 << i) - 1


def _h_of_counts(part: int, whole: int) -> float:
    """Binary entropy of a part/whole split given by integer counts."""
    if part == 0 or part == whole:
        return 0.0
    return binary_entropy(part / whole)


@functools.cache
def _byte_reversal():
    """Table of the 256 bytes with their bits in reverse order (int64)."""
    import numpy as np

    table = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _bit_reversed(masks, n: int):
    """Each mask with its n low bits in reverse order: bit j moves to n-1-j.

    Sorted by this key, the masks sharing their low i bits are contiguous,
    for every i at once.  Every value stays below 2^n, so int64 holds it,
    and reversing twice gives the masks back.
    """
    import numpy as np

    table = _byte_reversal()
    key = np.zeros_like(masks)
    for low in range(0, n, 8):  # bits low..low+7 move to n-8-low..n-1-low
        rev = table[masks >> low & 0xFF]
        shift = n - 8 - low
        key |= rev << shift if shift >= 0 else rev >> -shift
    return key


def _chain_terms(unions, counts, n: int, total: int) -> list[float]:
    """H(U_i | U below i) for every coordinate i of the union draw.

    Sorted by bit-reversed value, the unions form a binary trie read from
    bit 0 up.  A prefix cell of coordinate i, the unions agreeing on the
    bits below i, is a contiguous run, its unions without bit i first.  Two
    neighbours in that order first differ at some bit i, and that is the
    one place where a cell of coordinate i switches from U_i = 0 to
    U_i = 1.  So every cell where U_i takes both values holds exactly one
    such pair, and the other cells, with U_i fixed, add nothing.  Each
    pair's cell is found by binary search on the keys and its counts are
    read off a running sum.  The terms are Python floats from the integer
    counts, one ``math.fsum`` per coordinate.
    """
    import numpy as np

    # Each K-sized temporary is dropped once spent, so the peak is a few of
    # them.  Only np.sort sorts, the kernel np.unique uses too: an argsort
    # would page in one more sort kernel, about 0.25 MB of resident code.
    powers = np.array([1 << i for i in range(n)], dtype=np.int64)
    key = np.sort(_bit_reversed(unions, n))
    ordered = _bit_reversed(key, n)  # the unions in key order
    running = np.zeros(len(key) + 1, dtype=np.int64)  # counts before each position
    np.cumsum(counts[np.searchsorted(unions, ordered)], out=running[1:])
    diff = ordered[1:] ^ ordered[:-1]
    del ordered
    coord = np.searchsorted(powers, diff & -diff)  # lowest bit where neighbours differ
    del diff
    # the key bits that vary inside the pair's cell: bit i and those above it
    free = (powers[::-1] * 2 - 1)[coord]
    ends = np.searchsorted(key, key[1:] | free, side="right")
    starts = np.searchsorted(key, key[1:] & ~free)
    del key, free
    after = running[ends]
    whole = after - running[starts]
    ones = after - running[1:-1]
    del running, ends, starts, after
    # group the pairs by coordinate: sort (coordinate, position) packed in one int64
    width = len(coord).bit_length()
    packed = np.sort(coord << width | np.arange(len(coord)))
    by_coord = packed & ((1 << width) - 1)
    whole, ones = whole[by_coord], ones[by_coord]
    bounds = np.searchsorted(packed, np.arange(n + 1) << width).tolist()
    return [math.fsum(c / total * _h_of_counts(c1, c)
                      for c, c1 in zip(whole[lo:hi].tolist(), ones[lo:hi].tolist()))
            for lo, hi in zip(bounds, bounds[1:])]


def chain_rule_check(family: SetFamily, tol: float = DEFAULT_TOL) -> BoundReport:
    """Chain-rule identity and the data-processing step for the union draw.

    Write U = A | B for an ordered pair drawn uniformly from the family.
    lhs is H(U).  The chain sum sum_i H(U_i | U restricted below i) must
    equal lhs up to rounding; its residue is ``identity_margin_bits``.
    rhs conditions each coordinate on both source prefixes instead,
    sum_i H(U_i | A below i, B below i), which is never larger, so
    ``margin_bits`` = lhs - rhs >= 0 up to the tolerance.

    The chain sum sorts the unions once by their bit-reversed value, so
    every coordinate's prefix cells are contiguous runs of the histogram
    arrays (:func:`_chain_terms`).  Only cells where U_i takes both values
    contribute; each term is computed from its integer counts in Python
    floats and every coordinate is summed with ``math.fsum``, which rounds
    correctly whatever the order of the cells.

    A pair of prefix cells contributes a term that depends only on each
    cell's type (members in the cell, members avoiding element i+1), so
    rhs is summed over pairs of distinct types weighted by their
    multiplicities.  That weighted sum is exact until its one rounding,
    so it equals ``math.fsum`` over all cell pairs.
    """
    if family.size == 0:
        raise ValueError("chain_rule_check requires a nonempty family")
    n = family.universe_size
    total = family.size ** 2
    unions, counts = family.union_counts

    chain_terms = _chain_terms(unions, counts, n, total)
    chain_sum = 0.0
    for term in chain_terms:  # ascending i, the order the chain rule reads
        chain_sum += term

    lhs = family.union_entropy
    identity_margin = chain_sum - lhs

    dp_sum = 0.0
    for i in range(n):
        pmask = _prefix_mask(i)
        prefix_groups: dict[int, list[int]] = {}
        for mask in family.sets:
            cell = prefix_groups.setdefault(mask & pmask, [0, 0])
            cell[0] += 1
            if not mask >> i & 1:
                cell[1] += 1  # members avoiding element i+1
        types = Counter(map(tuple, prefix_groups.values())).items()
        dp_sum += _weighted_fsum(
            ((na * nb) / total * _h_of_counts(za * zb, na * nb), ka * kb)
            for (na, za), ka in types
            for (nb, zb), kb in types)

    margin = lhs - dp_sum
    satisfied = margin >= -tol and abs(identity_margin) <= tol
    return BoundReport(
        check="chain_rule",
        lhs_bits=lhs,
        rhs_bits=dp_sum,
        margin_bits=margin,
        satisfied=satisfied,
        applicable=True,
        tolerance=tol,
        inputs={
            "chain_sum_bits": chain_sum,
            "identity_margin_bits": identity_margin,
            "family_size": float(family.size),
            "universe_size": float(n),
        },
    )


def check_lower_bound(family: SetFamily, tol: float = DEFAULT_TOL) -> BoundReport:
    """H(A union B) >= p/(2 phi) (H(A) + H(B)) for iid uniform draws.

    p is the smallest marginal absence probability over elements, 1 minus
    the maximum element frequency.
    """
    if family.size == 0:
        raise ValueError("check_lower_bound requires a nonempty family")
    lhs = family.union_entropy
    p = element_frequencies(family).p_min_zero
    h_draw = math.log2(family.size)
    rhs = float(p) * HALF_INV_PHI * (h_draw + h_draw)
    margin = lhs - rhs
    return BoundReport(
        check="pairwise_union_lower",
        lhs_bits=lhs,
        rhs_bits=rhs,
        margin_bits=margin,
        satisfied=margin >= -tol,
        applicable=True,
        tolerance=tol,
        inputs={
            "p_min_zero": float(p),
            "half_inv_phi": HALF_INV_PHI,
            "family_size": float(family.size),
            "entropy_per_draw_bits": h_draw,
        },
    )


def check_upper_bound(family: SetFamily, tol: float = DEFAULT_TOL) -> BoundReport:
    """H(A|B) <= 2 eps log2(1/eps) + (1 + 2 eps) log2 |F| for eps < 1/2.

    Also verifies, as an exact identity, the decomposition of H(A|B)
    through the indicator I = [A|B is a member]:
    H(A|B) = H(I) + Pr[I=1] H(A|B given I=1) + Pr[I=0] H(A|B given I=0),
    and that the decomposition stays below rhs term by term.  For
    eps >= 1/2 the report is inapplicable and never counts as a failure.
    """
    import numpy as np

    if family.size == 0:
        raise ValueError("check_upper_bound requires a nonempty family")
    total = family.size ** 2
    _, counts = family.union_counts
    lhs = family.union_entropy

    inside = np.zeros(len(counts), dtype=bool)
    inside[_member_cells(family)] = True
    in_counts = counts[inside].tolist()
    out_counts = counts[~inside].tolist()
    in_total = sum(in_counts)
    out_total = total - in_total
    eps = Fraction(out_total, total)  # = 1 - closure_fraction, exactly
    eps_f = float(eps)

    h_ind = binary_entropy(eps_f)
    # in_total >= |F| (A | A = A); with no pair outside, the inside part is
    # the whole histogram and its entropy is lhs
    h_in = lhs if not out_total else _entropy_from_counts(in_counts, in_total)
    decomposition = h_ind + (in_total / total) * h_in
    if out_total:
        decomposition += (out_total / total) * _entropy_from_counts(out_counts, out_total)

    log_size = math.log2(family.size)
    surprise = -math.log2(eps_f) if eps_f > 0.0 else 0.0
    rhs = 2.0 * eps_f * surprise + (1.0 + 2.0 * eps_f) * log_size

    applicable = eps < _HALF
    margin = rhs - lhs
    identity_ok = abs(decomposition - lhs) <= tol
    if applicable:
        satisfied = identity_ok and margin >= -tol and rhs - decomposition >= -tol
    else:
        satisfied = True
    return BoundReport(
        check="union_upper",
        lhs_bits=lhs,
        rhs_bits=rhs,
        margin_bits=margin,
        satisfied=satisfied,
        applicable=applicable,
        tolerance=tol,
        inputs={
            "epsilon": eps_f,
            "h_epsilon_bits": h_ind,
            "decomposition_bits": decomposition,
            "family_size": float(family.size),
            "log2_family_size": log_size,
        },
    )


def theorem_delta(epsilon: Fraction, family_size: int) -> float:
    """delta = 2 eps (1 + log2(1/eps) / log2|F|) of the frequency bound.

    0 when eps = 0 (union-closed input), and also when eps is positive but
    below the least positive float, where delta rounds to 0 anyway.
    """
    eps_f = float(epsilon)
    if eps_f == 0.0:
        return 0.0
    return 2.0 * eps_f * (1.0 + (-math.log2(eps_f)) / math.log2(family_size))


def check_theorem(family: SetFamily, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Frequency bound: some element appears in a psi - delta share of F.

    delta = 2 eps (1 + log(1/eps) / log |F|) with eps the ordered-pair
    closure deficit (delta = 0 when eps = 0, i.e. union-closed input).
    Needs |F| >= 2.  Inapplicable when eps >= 1/2 or when psi - delta <= 0
    (vacuously true either way; satisfied is reported as true).
    """
    if family.size < 2:
        raise ValueError("check_theorem requires a family of size >= 2")
    eps = 1 - closure_fraction(family)
    prof = element_frequencies(family)
    delta = theorem_delta(eps, family.size)
    bound = PSI - delta
    applicable = eps < _HALF and bound > 0.0
    satisfied = (not applicable) or float(prof.max_freq) >= bound - tol
    return TheoremReport(
        family_size=family.size,
        epsilon=eps,
        delta=delta,
        psi_minus_delta=bound,
        max_freq=prof.max_freq,
        applicable=applicable,
        satisfied=satisfied,
        tolerance=tol,
    )
