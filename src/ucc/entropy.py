"""Entropy checks for the union of two independent uniform draws.

Let A and B be independent uniform draws from a family F.  The distribution
of A | B (bitwise union) is computed exactly, as integer counts over all
|F|^2 ordered pairs.  The counts are the family's cached
pair-union histogram, :attr:`ucc.setfamily.SetFamily.union_counts`, built
once per family as an OR convolution by
:func:`ucc.setfamily.pair_union_counts`, whose cell cap is the only size
limit on these checks.  It is a pair of int64 arrays, the ascending unions
and their counts, and every check below reads those arrays or the entropy
cached from them, so a family's pairs are counted once however many checks
run.  H(A|B) itself is the family's cached
:attr:`~ucc.setfamily.SetFamily.union_entropy`, evaluated once by the one
pass that reads every cell: it reads the histogram one chunk of
:data:`~ucc.setfamily._CHUNK_CELLS` cells at a time, so no check holds a
per-cell buffer beyond one chunk (the closure deficit reads only the
|F| members' cells); each entropy term is still a Python float from exact
integer counts, and each sum is rounded once, as ``math.fsum`` over all
its terms would round it.  :func:`union_distribution` reports two numbers
of that histogram, its support size and H(A|B); whoever needs the unions
and counts themselves reads them from the family.  On top of the histogram
sit four checks, each
returning a small report rather than a bare bool.  The three inequality
checks bound H(A|B) from one side, and their :class:`BoundReport` holds
only what the verdict turns on: the other side (``rhs_bits``), the
margin, the verdict and whether the bound applies.  H(A|B) itself is not
repeated there; callers read it from the family:

*   ``chain_rule_check``: the coordinate chain rule writes H(A|B) as
    sum_i H(U_i | U below i), and conditioning each union bit on both
    source prefixes instead of its own can only lower that sum (a
    data-processing step).  The step holds for every family, so this check
    tests the float code and fails only on a certified contradiction.
    Only the ``entropy`` report runs it; ``fuzz --entropy-checks`` decides
    the two bounds below, not this step.
*   ``check_lower_bound``: H(A|B) >= p/(2 phi) (H(A) + H(B)) with
    p = min_i Pr[element i missing from a draw] = 1 - max frequency.
*   ``check_upper_bound``: H(A|B) <= 2 eps log2(1/eps) + (1 + 2 eps) log2|F|
    where eps is the family's ordered-pair closure deficit,
    :attr:`~ucc.setfamily.SetFamily.closure_deficit`, proved by splitting on
    the member indicator.  Inapplicable (reported, not failed) once
    eps >= 1/2.
*   ``check_theorem``: some element frequency reaches psi - delta with
    delta = 2 eps (1 + log(1/eps) / log|F|); vacuous when psi - delta <= 0
    and on a one-set family, which is union closed.  Its
    :class:`TheoremReport` holds delta and the verdict, not eps or the
    frequency, which the family caches.

Entropies are floats in bits (compensated summation over exact integer
counts), but no verdict compares those floats with a threshold.  On a
union-closed family the theorem is decided in integers.  Every other
verdict encloses both sides of its inequality in outward-rounded
:class:`~ucc.analytic.intervals.Interval` values built from the exact
counts: psi and 1/(2 phi) from an enclosure of sqrt 5, each ``log2`` of a
count widened by ``TRANSCENDENTAL_SLACK``, and each computed entropy
widened by the error radius proved where it is defined
(:func:`_union_entropy_enclosure`, :func:`_chain_radius`).
``satisfied`` is then ``True`` when the inequality holds on the whole
enclosures, ``False`` when it fails on the whole of them, and ``None``
(undecided) when they overlap; only ``False`` is a violation.  The radii
assume that ``math.log2`` and :func:`~ucc.analytic.scalars.binary_entropy`
stay within ``TRANSCENDENTAL_SLACK`` of the exact values, which the tests
check against mpmath.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple

from .analytic.intervals import TRANSCENDENTAL_SLACK, Interval
from .analytic.scalars import HALF_INV_PHI, PSI, binary_entropy
from .setfamily import SetFamily, element_frequencies

__all__ = [
    "UnionDistribution",
    "BoundReport",
    "TheoremReport",
    "union_distribution",
    "chain_rule_check",
    "check_lower_bound",
    "check_upper_bound",
    "check_theorem",
    "theorem_delta",
]

_HALF = Fraction(1, 2)

_ZERO = Interval.point(0.0)
_ONE = Interval.point(1.0)
_TWO = Interval.point(2.0)
# sqrt is correctly rounded, so sqrt 5 lies within half an ulp of this
# float.  psi and 1/(2 phi) are enclosed from it rather than by nudging
# PSI and HALF_INV_PHI: PSI lies 0.98 ulp below (3 - sqrt 5)/2, farther
# than one correct rounding would put it.
_SQRT5 = math.sqrt(5.0)
_SQRT5_ENCLOSURE = Interval(math.nextafter(_SQRT5, 0.0), math.nextafter(_SQRT5, 3.0))
_PSI_ENCLOSURE = (Interval.point(3.0) - _SQRT5_ENCLOSURE) / _TWO
_HALF_INV_PHI_ENCLOSURE = (_ONE + _SQRT5_ENCLOSURE) / Interval.point(4.0)


class UnionDistribution(NamedTuple):
    """What a run reads of the distribution of A | B, for A, B independent
    uniform on F.

    ``support_size`` is the number of distinct unions and ``entropy_bits``
    is H(A | B) in bits, the family's cached
    :attr:`~ucc.setfamily.SetFamily.union_entropy`;
    :func:`_union_entropy_enclosure` bounds its error.  The distribution
    itself is the family's histogram,
    :attr:`~ucc.setfamily.SetFamily.union_counts`, out of |F|^2 ordered
    pairs.
    """

    support_size: int
    entropy_bits: float


class BoundReport(NamedTuple):
    """One verified inequality between H(A|B), the family's
    :attr:`~ucc.setfamily.SetFamily.union_entropy`, and ``rhs_bits``.

    ``margin_bits`` is oriented so that nonnegative means satisfied.
    ``satisfied`` is decided from enclosures of both sides, not from the
    margin: True or False when the enclosures settle the inequality, None
    when they overlap (undecided, never a violation).  ``applicable`` is
    false when the hypothesis of the bound fails (never counted as a
    violation).
    """

    rhs_bits: float
    margin_bits: float
    satisfied: bool | None
    applicable: bool


class TheoremReport(NamedTuple):
    """The frequency bound max_freq >= psi - delta for one family.

    It holds only what the verdict adds: ``delta``, the theorem's term
    for the family's closure deficit eps, whether the bound applies, and
    the verdict.  eps is the family's cached
    :attr:`~ucc.setfamily.SetFamily.closure_deficit` and max_freq its
    :attr:`~ucc.setfamily.SetFamily.frequency_profile`'s; callers read
    them there.
    """

    delta: float
    applicable: bool
    satisfied: bool | None


def union_distribution(family: SetFamily) -> UnionDistribution:
    """Support size and entropy of the union of two independent uniform
    draws; requires a histogram within the kernel's cell cap
    (:class:`~ucc.CapExceededError` otherwise)."""
    return UnionDistribution(support_size=len(family.union_counts[1]),
                             entropy_bits=family.union_entropy)


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


def _at_least(lhs: Interval, rhs: Interval) -> bool | None:
    """Decide lhs >= rhs from enclosures of its two sides: True when it holds
    for every pair of points, False when it fails for every pair, None
    (undecided) when the enclosures overlap without settling it."""
    if lhs.lo >= rhs.hi:
        return True
    if lhs.hi < rhs.lo:
        return False
    return None


def _widen(value: float, radius: float) -> Interval:
    return Interval.point(value) + Interval(-radius, radius)


def _fraction_enclosure(q: Fraction) -> Interval:
    """The float nearest q (``float`` rounds a Fraction correctly), widened
    by one ulp each way."""
    v = float(q)
    return Interval(math.nextafter(v, -math.inf), math.nextafter(v, math.inf))


def _log2_enclosure(m: int) -> Interval:
    """log2 of an integer 1 <= m <= 2^48: exact at a power of two, else
    libm's value widened by TRANSCENDENTAL_SLACK (m converts to float
    exactly, so libm's error is the only one)."""
    if m & (m - 1) == 0:
        return Interval.point(float(m.bit_length() - 1))
    return _widen(math.log2(m), TRANSCENDENTAL_SLACK)


def _union_entropy_enclosure(family: SetFamily) -> Interval:
    """Enclosure of H(A|B) around the family's cached float, which
    ``_entropy_from_counts`` computed from the histogram's positive integer
    counts, summing to T = |F|^2 <= 2^48.

    One cell is entropy 0 exactly.  Otherwise the radius is
    2 s + 2^-51 (fl(log2 T) + 2), where s = TRANSCENDENTAL_SLACK,
    L = log2 T and u = 2^-53.  The float code evaluates
    H = log2 T - (1/T) sum c log2 c, and every count c <= T converts to
    float exactly.  The term fl(c fl(log2 c)) is within c s + u c (L + s)
    of c log2 c, so the exact sum S of the terms is within T s + u T (L + s)
    of sum c log2 c <= T L, and |S| <= T (L + s)(1 + u).  fsum rounds S once
    (u |S|), the division by T adds u (L + s)(1 + u)^2, log2 T errs by s and
    the final subtraction by u (L + 1).  Dividing the sum's errors by T and
    adding up gives at most 2 s + u (4 L + 1 + 3 s + 3u (L + s)), which is
    below 2 s + 4u (L + 1).  As L <= fl(log2 T) + s, the radius's
    4u (fl(log2 T) + 2) covers that term and the rounding of the radius.
    """
    if len(family.union_counts[1]) == 1:
        return _ZERO
    return _widen(family.union_entropy, 2.0 * TRANSCENDENTAL_SLACK
                  + 2.0 ** -51 * (math.log2(family.size ** 2) + 2.0))


def _chain_radius(n: int) -> float:
    """Error bound of the data-processing sum of :func:`chain_rule_check`
    over n coordinates.

    A coordinate's term is a sum of fl(fl(w) binary_entropy(fl(x))) over
    pairs of prefix cells, with exact weights w summing to 1 (pairs
    counted with their multiplicities) and x = a/b for counts
    0 < a < b <= 2^48 (x = 0 or 1 is entropy 0 exactly).  fl(x) moves x by
    at most u x <= u, with u = 2^-53; x and 1 - x are both at least
    2^-48, so along that step |h'(t)| = |log2((1 - t)/t)| <= 49 and h
    moves by at most 49u < 2^-47.  binary_entropy stays within
    s = TRANSCENDENTAL_SLACK of h, so binary_entropy(fl(x)) errs by at
    most r = s + 2^-47.  fl(w) and the product each round by u and
    binary_entropy is at most 1, so a summand errs by at most w (r + 3u).
    The exact weighted sum rounds once, by u times a value below 2, so the
    coordinate errs by at most r + 5u < s + 2^-46.  Adding the n
    coordinate terms, each below 1 + 2^-40, in floats costs at most
    (n - 1) u n (1 + 2^-39) < 2u n^2 more.
    """
    return n * (TRANSCENDENTAL_SLACK + 2.0 ** -46) + n * n * 2.0 ** -52


def chain_rule_check(family: SetFamily) -> BoundReport:
    """The data-processing step of the chain rule for the union draw.

    Write U = A | B for an ordered pair drawn uniformly from the family.
    The lhs is H(U), the family's union entropy, which the chain rule
    writes as sum_i H(U_i | U restricted below i).  The rhs
    (``rhs_bits``) conditions each coordinate on both source prefixes
    instead, sum_i H(U_i | A below i, B below i), which is never larger,
    so ``margin_bits`` = lhs - rhs >= 0 up to rounding.  That holds for
    every family, and the step is tight for product families, so the
    check tests the float code: it is unsatisfied only on a certified
    contradiction, when the rhs enclosure lies wholly above lhs's (radii
    of :func:`_chain_radius` and :func:`_union_entropy_enclosure`), and
    never undecided.

    A pair of prefix cells contributes a term that depends only on each
    cell's type (members in the cell, members avoiding element i+1), so
    rhs is summed over pairs of distinct types weighted by their
    multiplicities.  That weighted sum is exact until its one rounding,
    so it equals ``math.fsum`` over all cell pairs.
    """
    n = family.universe_size
    total = family.size ** 2
    lhs = family.union_entropy  # built before any prefix cells are held

    dp_sum = 0.0
    for i in range(n):
        pmask = (1 << i) - 1
        prefix_groups: dict[int, list[int]] = {}
        for mask in family.sets:
            cell = prefix_groups.setdefault(mask & pmask, [0, 0])
            cell[0] += 1
            if not mask >> i & 1:
                cell[1] += 1  # members avoiding element i+1
        types = Counter(map(tuple, prefix_groups.values())).items()
        dp_sum += _weighted_fsum(
            ((na * nb) / total * binary_entropy(za * zb / (na * nb)), ka * kb)
            for (na, za), ka in types
            for (nb, zb), kb in types)

    satisfied = _at_least(_union_entropy_enclosure(family),
                          _widen(dp_sum, _chain_radius(n))) is not False
    return BoundReport(
        rhs_bits=dp_sum,
        margin_bits=lhs - dp_sum,
        satisfied=satisfied,
        applicable=True,
    )


def check_lower_bound(family: SetFamily) -> BoundReport:
    """H(A union B) >= p/(2 phi) (H(A) + H(B)) for iid uniform draws.

    p is the smallest marginal absence probability over elements, 1 minus
    the maximum element frequency.  The rhs is enclosed from p, sqrt 5 and
    log2|F|; it is exactly 0 when p = 0 or |F| = 1.
    """
    lhs = family.union_entropy
    p = 1 - element_frequencies(family).max_freq
    h_draw = math.log2(family.size)
    rhs = float(p) * HALF_INV_PHI * (h_draw + h_draw)
    if p == 0 or family.size == 1:
        rhs_enc = _ZERO
    else:
        log_size = _log2_enclosure(family.size)
        rhs_enc = (_fraction_enclosure(p) * _HALF_INV_PHI_ENCLOSURE
                   * (log_size + log_size))
    return BoundReport(
        rhs_bits=rhs,
        margin_bits=lhs - rhs,
        satisfied=_at_least(_union_entropy_enclosure(family), rhs_enc),
        applicable=True,
    )


def check_upper_bound(family: SetFamily) -> BoundReport:
    """H(A|B) <= 2 eps log2(1/eps) + (1 + 2 eps) log2 |F| for eps < 1/2.

    eps is the ordered-pair closure deficit, the share of pairs whose
    union U = A|B is not a member.  The bound splits on the indicator
    I = [U is a member], a function of U, so by the chain rule
    H(U) = H(I) + Pr[I=1] H(U | I=1) + Pr[I=0] H(U | I=0).  Given I = 1,
    U takes at most |F| values, and given I = 0 at most |F|^2, so
    H(U) <= h(eps) + (1 + eps) log2 |F|, below the rhs as
    h(eps) <= 2 eps log2(1/eps) for eps <= 1/2.  The split is an identity
    for every family, so only the tests check it
    (``tests/pair_oracles.decomposition``); this check decides the
    inequality alone, on enclosures of both sides, and with eps = 0 its
    rhs is log2 |F| exactly.  For eps >= 1/2 the report is
    inapplicable and never counts as a failure.
    """
    lhs = family.union_entropy
    eps = family.closure_deficit
    eps_f = float(eps)

    log_size = math.log2(family.size)
    surprise = -math.log2(eps_f) if eps_f > 0.0 else 0.0
    rhs = 2.0 * eps_f * surprise + (1.0 + 2.0 * eps_f) * log_size

    applicable = eps < _HALF
    satisfied: bool | None = True
    if applicable:
        log_size_enc = rhs_enc = _log2_enclosure(family.size)
        if eps:
            two_eps = _TWO * _fraction_enclosure(eps)
            surprise_enc = _log2_enclosure(eps.denominator) - _log2_enclosure(eps.numerator)
            rhs_enc = two_eps * surprise_enc + (_ONE + two_eps) * log_size_enc
        satisfied = _at_least(rhs_enc, _union_entropy_enclosure(family))
    return BoundReport(
        rhs_bits=rhs,
        margin_bits=rhs - lhs,
        satisfied=satisfied,
        applicable=applicable,
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


def _at_least_psi(q: Fraction) -> bool:
    """q >= psi = (3 - sqrt 5)/2 for a rational 0 <= q <= 1, in integers.

    With q = a/b, q >= psi iff sqrt 5 b >= 3b - 2a, and 3b - 2a >= b > 0
    as a <= b, so squaring keeps the order: (3b - 2a)^2 <= 5 b^2.
    """
    a, b = q.numerator, q.denominator
    return (3 * b - 2 * a) ** 2 <= 5 * b * b


def check_theorem(family: SetFamily) -> TheoremReport:
    """Frequency bound: some element appears in a psi - delta share of F.

    delta = 2 eps (1 + log(1/eps) / log |F|) with eps the family's
    ordered-pair :attr:`~ucc.setfamily.SetFamily.closure_deficit` (delta = 0
    when eps = 0, i.e. union-closed input), and max_freq the frequency of
    its :attr:`~ucc.setfamily.SetFamily.frequency_profile`.  The report
    holds delta, whether the bound applies and the verdict.
    Inapplicable (satisfied is reported as true) on a one-set family,
    which is union closed (eps = 0, delta = 0) yet may have max_freq 0,
    as {empty set} has.  Inapplicable too when psi - delta <= 0 (vacuously
    true), which includes every eps >= 1/2: then delta >= 2 eps >= 1 > psi,
    and the float delta keeps that order, as float(eps) >= 1/2 and
    log2(1/eps) >= 0.  The test reads the float bound; where that float is
    within rounding of 0 the verdict cannot turn on it, as max_freq >=
    1/|F| >= 2^-24 once |F| >= 2.

    At eps = 0 the verdict is exact (:func:`_at_least_psi`).  Otherwise
    max_freq and psi - delta are enclosed, delta from eps = a/b as
    2 eps (1 + (log2 b - log2 a) / log2 |F|), and the verdict is None when
    the two enclosures overlap.
    """
    eps = family.closure_deficit
    prof = element_frequencies(family)
    delta = theorem_delta(eps, family.size)
    applicable = family.size >= 2 and PSI - delta > 0.0
    satisfied: bool | None = True
    if applicable and not eps:
        satisfied = _at_least_psi(prof.max_freq)
    elif applicable:
        log2_inv_eps = _log2_enclosure(eps.denominator) - _log2_enclosure(eps.numerator)
        delta_enc = _TWO * _fraction_enclosure(eps) * (
            _ONE + log2_inv_eps / _log2_enclosure(family.size))
        satisfied = _at_least(_fraction_enclosure(prof.max_freq),
                              _PSI_ENCLOSURE - delta_enc)
    return TheoremReport(delta=delta, applicable=applicable, satisfied=satisfied)
