"""Certified lower bounds for f on the closed unit square.

``certify_lower_bound(theta, eta)`` first decides, exactly, whether theta
lies above the minimum of f.  f is least at the one point (phi, phi), where
f(phi, phi) = 1/(2 phi) = (1 + sqrt 5)/4 (``scalars``: phi^2 = 1 - phi, so
h(phi^2) = h(phi)).  A float theta is dyadic, so with q = 4 theta - 1 as a
``Fraction``, theta > 1/(2 phi) iff q > 0 and q^2 > 5, in integers.  Every
such theta is refuted by the point (phi, phi) itself and no search runs.
Otherwise, so only for theta below the minimum, an interval branch and bound
covers [eta, 1-eta]^2 as one preorder walk on a stack.  Each box is
enclosed once, when it is popped, by the mean-value form of f
(``intervals.f_mean_value``).  A box whose enclosure proves f >= theta is
an accepted leaf.  A box whose enclosure lies wholly below theta is a
certified violation, which below the minimum would contradict the lemma
itself.  Every other box is split, at the geometric mean of its distances
from the nearer edge when it spans decades of them, else along its longer
side (``_split``), and its first child is walked before its second.  A
box that can no longer be split (``_MAX_DEPTH``, or floats too close) is
an undecided leaf.  The walk stops at its first violation and at its
first undecided leaf: a cover with a box left uncovered can no longer
verify, and below the minimum no later box could refute, so such a run is
``indeterminate``.  A box's fate depends only on the box, so a run that
no budget cuts short is fixed by theta and eta alone.

Mirrored boxes are dropped.  f(x, y) = f(y, x) and the root box is
symmetric, so a box with x_lo > y_hi lies wholly in the region x > y,
whose mirror image the kept boxes cover.  Such a box is discarded when it
is created, before it is pushed: ``boxes_processed``, the accepted
leaves and the trail cover only boxes that meet {x <= y},
about half the work of the full square.  A checker that replays the trail
must apply the same cut.

The strips of width eta around the search square are not searched.  Three
closed-form lower bounds of f cover them (``_edge_bounds``, proved in its
docstring), each evaluated once with outward-rounded intervals; f is 1 on
the boundary lines themselves.  So a ``verified`` certificate proves
f >= theta on all of [0, 1]^2.

The trail: each enclosed box appends one byte, in preorder: 0 for an
accepted leaf, 1 for a split, 2 for an undecided leaf and 3 for a
violation.  A 2 or a 3 ends the walk, so it can only be the last byte, and
a verified trail is 0s and 1s.  Its length is ``boxes_processed``, and
``trace_digest`` is its sha256 (that of the empty trail when the point
refutes).  Replaying ``_split`` from the root box, with the mirrored
children dropped, reads the trail back one byte a box; that is how a
checker can rebuild the cover and enclose only its leaves.

Determinism: the walk visits boxes in one fixed order and all float
operations are IEEE double, so repeated runs with equal parameters
produce byte-identical certificates.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .intervals import (LOG2E, TRANSCENDENTAL_SLACK, Interval, f_mean_value,
                        g_enclosure)
from .scalars import HALF_INV_PHI, PHI

__all__ = [
    "Box",
    "ViolationBox",
    "EdgeBounds",
    "Certificate",
    "certify_lower_bound",
]

_MAX_DEPTH = 60      # a box this many splits below the root is not split again


class Box(NamedTuple):
    """Axis-aligned box [x_lo, x_hi] x [y_lo, y_hi]."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    @property
    def x(self) -> Interval:
        return Interval(self.x_lo, self.x_hi)

    @property
    def y(self) -> Interval:
        return Interval(self.y_lo, self.y_hi)


class ViolationBox(NamedTuple):
    """A box on which f is certified to stay below the threshold; a point
    when x_lo == x_hi and y_lo == y_hi.

    The point is the exact minimizer (phi, phi), printed as the float
    ``PHI``, and its ``f_upper`` is the float ``HALF_INV_PHI``.  Two facts
    certify that bound: f(phi, phi) = 1/(2 phi) exactly (``scalars``), and
    the integer rule of :func:`certify_lower_bound` puts ``HALF_INV_PHI``
    above 1/(2 phi) and ``nextafter(HALF_INV_PHI, 0)`` below it.  So every
    theta the point refutes is at least ``f_upper``, and f(phi, phi) < theta.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    f_upper: float  # certified upper bound of f on the box


class EdgeBounds(NamedTuple):
    """Certified lower bounds of f outside the search square [eta, hi]^2,
    hi = 1 - eta in floats; the mirrored regions follow by symmetry."""

    delta: float       # the corner is [hi, 1] x [1-delta, 1]; 1-delta is a float
    low_strip: float   # f >= low_strip on {x <= eta}
    high_strip: float  # f >= high_strip on {x >= hi, y <= 1-delta}
    corner: float      # f >= corner on {x >= hi, y >= 1-delta}


class Certificate(NamedTuple):
    """Outcome of one run: an exact test of theta against the minimum
    1/(2 phi), then, unless theta lies above it, one preorder
    branch-and-bound walk.

    ``verified`` is true iff f >= theta is proved on all of [0, 1]^2: every
    box of the interior partition that meets {x <= y} was accepted within
    the budget, and every bound in ``boundary`` (an :class:`EdgeBounds`) is
    at least theta.  Mirrored boxes (x_lo > y_hi) are dropped, since f is
    symmetric, and a checker replaying the cover must drop them too.
    ``boxes_processed`` counts every box enclosure of the walk, so only
    boxes that meet {x <= y}; it never exceeds the box budget, it is 0
    when the point refutes, and it is the length of the trail whose sha256
    is ``trace_digest`` (see the module docstring).  ``violation_boxes``
    holds at most one certified refutation: the point (phi, phi) for every
    theta above 1/(2 phi) (see :class:`ViolationBox`), or else the first
    box of the walk wholly below theta, which would contradict the lemma
    (empty when there is none).  ``worst_box`` is the box the run stopped
    at: that refutation, or else the undecided leaf the walk ended at, but
    only when its certified upper bound on f is below 1 (f <= 1 on the
    whole square, see :func:`certify_lower_bound`, so a bound of 1 or more
    says nothing); otherwise None, as for every verified run and every
    budget cut.
    ``status`` is one of ``verified``, ``refuted``, ``indeterminate``,
    ``budget_exhausted``: ``indeterminate`` when the walk ended at an
    undecided leaf, or when the interior verified but an edge bound is
    below theta, and ``budget_exhausted`` when the budget ran out first.
    """

    threshold: float
    eta: float
    boxes_processed: int
    max_depth_used: int
    verified: bool
    status: str
    accepted_boxes: int
    violation_boxes: tuple[ViolationBox, ...]
    worst_box: ViolationBox | None
    boundary: EdgeBounds
    trace_digest: str


def _edge_cut(lo: float, hi: float) -> float | None:
    """Log-scale cut of [lo, hi] toward the nearer edge of [0, 1], or None.

    With [a, b] the distance range of the side from that edge, a side that
    spans more than a factor of 4 in distance, within half the square, is
    cut at the geometric mean sqrt(ab) (mirrored on the 1-side).
    """
    near_one = 1.0 - hi < lo
    a, b = (1.0 - hi, 1.0 - lo) if near_one else (lo, hi)
    if not (0.0 < a and 4.0 * a < b < 0.5):
        return None
    cut = 1.0 - math.sqrt(a * b) if near_one else math.sqrt(a * b)
    return cut if lo < cut < hi else None


def _split(box: Box) -> tuple[Box, Box] | None:
    """Split an edge box in log scale, x first, else bisect along the longer
    side; None if floats cannot split further.

    A box that touches the eta edge spans decades of distance from it, and
    the enclosure of f cannot decide it until each child spans few; bisection
    takes one step per halving of that span, a log-scale cut one per halving
    of its number of decades.
    """
    cut = _edge_cut(box.x_lo, box.x_hi)
    if cut is not None:
        return (Box(box.x_lo, cut, box.y_lo, box.y_hi),
                Box(cut, box.x_hi, box.y_lo, box.y_hi))
    cut = _edge_cut(box.y_lo, box.y_hi)
    if cut is not None:
        return (Box(box.x_lo, box.x_hi, box.y_lo, cut),
                Box(box.x_lo, box.x_hi, cut, box.y_hi))
    wx = box.x_hi - box.x_lo
    wy = box.y_hi - box.y_lo
    for split_x in ((True, False) if wx >= wy else (False, True)):
        if split_x:
            mid = 0.5 * (box.x_lo + box.x_hi)
            if box.x_lo < mid < box.x_hi:
                return (Box(box.x_lo, mid, box.y_lo, box.y_hi),
                        Box(mid, box.x_hi, box.y_lo, box.y_hi))
        else:
            mid = 0.5 * (box.y_lo + box.y_hi)
            if box.y_lo < mid < box.y_hi:
                return (Box(box.x_lo, box.x_hi, box.y_lo, mid),
                        Box(box.x_lo, box.x_hi, mid, box.y_hi))
    return None


def _trail_digest(trail: bytes) -> str:
    import hashlib  # loads OpenSSL; only this verb's digest needs it

    return hashlib.sha256(trail).hexdigest()


def _edge_bounds(eta: float) -> EdgeBounds:
    """Lower bounds of f on the strips outside [eta, hi]^2, hi = fl(1-eta).

    One series carries the proof: (1-t)(-ln(1-t)) = t - sum_{k>=2}
    t^k / (k(k-1)) on [0, 1), so (1-t)(-ln(1-t)) <= t, -ln(1-t) >= t, and
    r(t) = -(1-t) log2(1-t) / t = log2 e (1 - sum_{k>=2} t^(k-1) / (k(k-1)))
    falls from log2 e (t -> 0) to 0 (t -> 1), as sum 1/(k(k-1)) = 1.
    g(t) = log2(1/t) + r(t) is positive and decreasing, and
    f(x, y) = g(xy) / (g(x) + g(y)) on the open square.  Let a = 1 - hi,
    which is exact.

    *   Low strip, x <= eta.  r(xy) >= r(x) and r(y) <= log2 e, so with
        u = log2(1/y) >= 0, f >= (g(x) + u) / (g(x) + u + log2 e), which
        rises in u and in g(x) >= g(eta): f >= g(eta) / (g(eta) + log2 e).
    *   High strip, x >= hi, y <= 1-delta.  g(xy) >= g(y) and
        g(x) <= g(hi), so f >= g(y) / (g(hi) + g(y)), which rises in
        g(y) >= g(1-delta): f >= g(1-delta) / (g(hi) + g(1-delta)).
    *   Corner, x >= hi, y >= 1-delta.  Let a' = 1-x <= a, b = 1-y <= delta,
        s' = a' + b <= s = a + delta <= 1/2 and L' = log2(1/s').  The
        denominator h(x) y + h(y) x <= h(a') + h(b) <= 2 h(s'/2), as h is
        concave and rises on [0, 1/2], and 2 h(s'/2) <= s'(L' + 1 + log2 e)
        by (1-t)(-ln(1-t)) <= t at t = s'/2.  The numerator is h(w) with
        w = 1 - xy = s' - a'b, and s'(1-a) <= w <= s' since a'b/s' <= a.
        So w log2(1/w) >= s'(1-a) L', and -ln(1-w) >= w gives
        (1-w) log2(1/(1-w)) >= (1-s') s'(1-a) log2 e.  Hence
        f >= (1-a)(L' + (1-s') log2 e) / (L' + 1 + log2 e)
           = (1-a)(1 - (1 + s' log2 e) / (L' + 1 + log2 e)),
        which decreases in s', so its value at s, L = log2(1/s), bounds
        the whole corner.

    The mirrored strips follow from f(x, y) = f(y, x), and f is 1 on the
    boundary lines.  delta is picked from the rungs a 2^(k/4) with
    s <= 1/2 (rounded so that 1-delta is a float): the first rung whose
    smaller delta-dependent bound is largest, among those where the
    enclosure of g(1-delta) is positive.  Each bound is the lower end of
    one outward-rounded interval evaluation.
    """
    hi = 1.0 - eta
    a = 1.0 - hi
    one, x_hi = Interval.point(1.0), Interval.point(hi)  # 1 - a == hi
    g_eta = g_enclosure(Interval.point(eta))
    low = (g_eta / (g_eta + LOG2E)).lo
    g_hi = g_enclosure(x_hi)
    rungs = []
    for k in itertools.count():
        edge = 1.0 - a * 2.0 ** (k / 4)
        delta = 1.0 - edge  # exact when edge >= 1/2, as s <= 1/2 ensures
        s = Interval.point(a) + Interval.point(delta)
        if s.hi > 0.5:
            break
        g_edge = g_enclosure(Interval.point(edge))
        if g_edge.lo <= 0.0:
            continue  # g(1-delta) is within the slack of 0
        big_l = Interval(-math.log2(s.hi) - TRANSCENDENTAL_SLACK,
                         -math.log2(s.lo) + TRANSCENDENTAL_SLACK)
        high = (g_edge / (g_hi + g_edge)).lo
        corner = (x_hi * (big_l + (one - s) * LOG2E) / (big_l + one + LOG2E)).lo
        rungs.append(EdgeBounds(delta, low, high, corner))
    return max(rungs, key=lambda b: min(b.high_strip, b.corner))


def certify_lower_bound(
    theta: float = 0.809016,
    eta: float = 1e-4,
    box_budget: int = 10_000_000,
) -> Certificate:
    """Certificate that f >= theta on [0, 1]^2: a preorder branch and bound
    over [eta, 1-eta]^2 and three closed-form bounds on the strips around it.

    A box ``_MAX_DEPTH`` splits below the root is not split again, and the
    walk ends at its first violation or its first undecided leaf, so a
    run that stays within ``box_budget`` is a function of theta and eta
    alone.  No bound on the walk's length is proved, so the budget stays
    as a cap: it can only cut a run short, after exactly ``box_budget``
    enclosures.  The walk keeps only its stack of (box, depth) entries,
    its trail and two counts: no per-leaf list.

    f <= 1 on [0, 1]^2, so ``worst_box`` keeps only bounds below 1.  With
    g and r as in :func:`_edge_bounds`, f <= 1 iff g(xy) <= g(x) + g(y),
    and as log2(1/(xy)) = log2(1/x) + log2(1/y) that is r(xy) <= r(x) + r(y).
    Write r(t) = log2 e (1 - sigma(t)) with
    sigma(t) = sum_{k>=2} t^(k-1) / (k(k-1)); the inequality becomes
    D(y) = sigma(x) + sigma(y) - sigma(xy) <= 1.  For fixed x in [0, 1],
    D'(y) = sigma'(y) - x sigma'(xy) >= 0, because sigma' has nonnegative
    coefficients and so rises, xy <= y and x <= 1.  sigma is continuous on
    [0, 1], so D(y) <= D(1) = sigma(1) = 1.  On the boundary lines f is 1.

    Thresholds above the true minimum 1/(2 phi) are not rejected: each is
    decided exactly, q = 4 theta - 1 > 0 and q^2 > 5 in ``Fraction``s, and
    refuted by the point (phi, phi) with no box enclosed.  That takes in
    ``HALF_INV_PHI``, which lies above 1/(2 phi).  Just below the minimum
    the walk cannot settle the boxes around (phi, phi), and the run ends
    ``indeterminate`` at the first of them, a depth-60 leaf, after about
    2,100 boxes at eta 1e-4.
    """
    if not 0.0 < eta < 0.1:
        raise ValueError(f"eta must be in (0, 0.1), got {eta}")
    if 1.0 - eta == 1.0:  # the enclosures need a square inside (0, 1)^2
        raise ValueError(f"eta must exceed 2**-54 so that 1 - eta < 1, got {eta}")
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive and finite, got {theta}")
    if box_budget < 1:
        raise ValueError("box_budget must be at least 1")

    q = 4 * Fraction(theta) - 1  # theta > 1/(2 phi) = (1 + sqrt 5)/4, exactly
    # the box the run stopped at: a refutation or the first undecided leaf
    stop = ViolationBox(PHI, PHI, PHI, PHI, HALF_INV_PHI) if q > 0 and q * q > 5 else None
    refuted = stop is not None
    stack = [] if refuted else [(Box(eta, 1.0 - eta, eta, 1.0 - eta), 0)]
    trail = bytearray()  # one byte per enclosed box, in preorder
    max_depth_used = 0
    while stack and len(trail) < box_budget:
        box, depth = stack.pop()
        max_depth_used = max(max_depth_used, depth)
        enc = f_mean_value(box.x, box.y)
        enc_lo, enc_hi = (enc.lo, enc.hi) if enc is not None else (-math.inf, math.inf)
        if enc_lo >= theta:
            trail.append(0)  # accepted leaf
            continue
        parts = _split(box) if depth < _MAX_DEPTH and enc_hi >= theta else None
        if parts is None:  # a violation or an undecided leaf: the walk ends here
            refuted = enc_hi < theta
            trail.append(3 if refuted else 2)
            stop = ViolationBox(*box, enc_hi)
            break
        trail.append(1)  # split; the first child is visited first
        stack.extend((child, depth + 1) for child in reversed(parts)
                     if child.x_lo <= child.y_hi)  # else its mirror is covered

    boundary = _edge_bounds(eta)
    if refuted:
        status = "refuted"
    elif stop is None and stack:  # the budget ran out before the walk ended
        status = "budget_exhausted"
    elif stop is not None or min(boundary.low_strip, boundary.high_strip,
                                 boundary.corner) < theta:
        status = "indeterminate"
    else:
        status = "verified"
    return Certificate(
        threshold=theta,
        eta=eta,
        boxes_processed=len(trail),
        max_depth_used=max_depth_used,
        verified=status == "verified",
        status=status,
        accepted_boxes=trail.count(0),
        violation_boxes=(stop,) if refuted else (),
        # f <= 1 everywhere, so an upper bound of 1 or more (+inf for a box
        # without an enclosure) certifies nothing
        worst_box=stop if stop is not None and stop.f_upper < 1.0 else None,
        boundary=boundary,
        trace_digest=_trail_digest(trail),
    )
