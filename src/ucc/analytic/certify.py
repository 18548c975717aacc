"""Certified lower bounds for f on the closed unit square.

``certify_lower_bound(theta, eta)`` runs an interval branch and bound over
[eta, 1-eta]^2 as one best-first search.  Every box is enclosed once, when
it is created, by the mean-value form of f (``intervals.f_mean_value``).
A box whose enclosure proves f >= theta is an accepted leaf; every other
box waits in a heap keyed on its enclosure lower bound, and the box with
the lowest bound is split next: at the geometric mean of its distances
from the nearer edge when it spans decades of them, else along its longer
side (``_split``).  A box that can no longer be split is an indeterminate
leaf, unless the run ends refuted: such a box cannot change a refutation,
so it is then not counted.

A box whose enclosure lies entirely below theta is a certified violation.
The one with the lowest upper bound is the incumbent; once it exists,
boxes that cannot beat it are dropped, and the search stops as soon as
the global minimum of f is bracketed.  The reported violation boxes are
the incumbent and its near-optimal neighbours, each one independently
certified (enclosure hi < theta), so refutations point at the bottom of
the dip: the sub-level set of f can be wide, but the reported boxes hug
the global minimizer.  A box's fate depends only on the box, never on
the order of the search, so a verified run's cover of accepted leaves
does not depend on that order either.

Mirrored boxes are dropped.  f(x, y) = f(y, x) and the root box is
symmetric, so a box with x_lo > y_hi lies wholly in the region x > y,
whose mirror image the kept boxes cover.  Such a box is discarded when it
is created, before it is counted or enclosed: ``boxes_processed``, the
accepted and indeterminate leaves and the trace digest cover only boxes
that meet {x <= y}, about half the work of the full square.  A checker
that replays a certificate's cover must apply the same cut.

The strips of width eta around the search square are not searched.  Three
closed-form lower bounds of f cover them (``_edge_bounds``, proved in its
docstring), each evaluated once with outward-rounded intervals; f is 1 on
the boundary lines themselves.  So a ``verified`` certificate proves
f >= theta on all of [0, 1]^2.

Determinism: the search is one heap, ties broken by insertion order, all
float operations are IEEE double, and the trace digest is a multiset hash
of the accepted and indeterminate leaves (per-leaf sha256, summed mod
2^256), so repeated runs with equal parameters produce byte-identical
certificates.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import NamedTuple

from .intervals import LOG2E, TRANSCENDENTAL_SLACK, Interval, f_mean_value, g_enclosure

__all__ = [
    "Box",
    "ViolationBox",
    "EdgeBounds",
    "Certificate",
    "certify_lower_bound",
]

_DIGEST_MOD = 1 << 256
_LOCATE_GAP = 1e-9   # stop localizing once min f is bracketed this tightly
_NEAR_BAND = 1e-6    # report boxes whose certified hi is this close to best
_VIOLATION_CAP = 16  # most violation boxes one certificate reports


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
    """A box on which f is certified to stay below the threshold."""

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
    """Outcome of one branch-and-bound run.

    ``verified`` is true iff f >= theta is proved on all of [0, 1]^2: every
    box of the interior partition that meets {x <= y} was accepted within
    the budget, and every bound in ``boundary`` (an :class:`EdgeBounds`) is
    at least theta.  Mirrored boxes (x_lo > y_hi) are dropped, since f is
    symmetric, and a checker replaying the cover must drop them too.
    ``boxes_processed`` counts every enclosure of the run, localization
    included, so only boxes that meet {x <= y}, and never exceeds the box
    budget.  ``violation_boxes`` are certified refutations clustered at the
    global minimizer (empty when verified).  ``worst_box`` is the box with
    the smallest certified upper bound on f among the incumbent, the
    indeterminate leaves and the boxes left pending when verification
    failed for any reason, else None.  ``status`` is one of ``verified``,
    ``refuted``, ``indeterminate``, ``budget_exhausted``; it is
    ``indeterminate`` with no indeterminate boxes when the interior
    verified but an edge bound is below theta.
    """

    threshold: float
    eta: float
    region: tuple[tuple[float, float], tuple[float, float]]
    boxes_processed: int
    max_depth_used: int
    verified: bool
    status: str
    accepted_boxes: int
    indeterminate_boxes: int
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


def _leaf_digest(status: str, box: Box) -> int:
    import hashlib  # loads OpenSSL; only this verb's digest needs it

    rec = f"{status}:{box.x_lo.hex()},{box.x_hi.hex()},{box.y_lo.hex()},{box.y_hi.hex()}"
    return int.from_bytes(hashlib.sha256(rec.encode("ascii")).digest(), "big")


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
    max_depth: int = 60,
    box_budget: int = 10_000_000,
) -> Certificate:
    """Certificate that f >= theta on [0, 1]^2: a branch and bound over
    [eta, 1-eta]^2 and three closed-form bounds on the strips around it.

    Thresholds at or above the true minimum 1/(2 phi) are not rejected:
    the run then terminates with verified=false and refutation boxes
    localized at the global minimizer, which is itself a checkable
    statement about where f dips below theta.
    """
    if not 0.0 < eta < 0.1:
        raise ValueError(f"eta must be in (0, 0.1), got {eta}")
    if 1.0 - eta == 1.0:  # the enclosures need a square inside (0, 1)^2
        raise ValueError(f"eta must exceed 2**-54 so that 1 - eta < 1, got {eta}")
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive and finite, got {theta}")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if box_budget < 1:
        raise ValueError("box_budget must be at least 1")

    lo, hi = eta, 1.0 - eta
    # pending boxes keyed on (enclosure lo, insertion index)
    heap: list[tuple[float, int, Box, float, int]] = []
    processed = 0
    accepted = 0
    undecided: list[tuple[Box, float]] = []  # unsplittable boxes, with hi
    max_depth_used = 0
    digest_acc = 0
    best_box: Box | None = None  # incumbent: lowest certified hi below theta
    best_hi = math.inf

    def enclose(box: Box, depth: int) -> None:
        nonlocal processed, accepted, max_depth_used, digest_acc, best_box, best_hi
        if box.x_lo > box.y_hi:
            return  # wholly in x > y: its mirror image is covered, f is symmetric
        processed += 1
        max_depth_used = max(max_depth_used, depth)
        enc = f_mean_value(box.x, box.y)
        enc_lo, enc_hi = (enc.lo, enc.hi) if enc is not None else (-math.inf, math.inf)
        if enc_lo >= theta:
            accepted += 1
            digest_acc += _leaf_digest("ok", box)
            return
        if enc_hi < best_hi and enc_hi < theta:
            best_box, best_hi = box, enc_hi
        if enc_lo < best_hi - _LOCATE_GAP:
            heapq.heappush(heap, (enc_lo, processed, box, enc_hi, depth))

    enclose(Box(lo, hi, lo, hi), 0)
    exhausted = False
    while heap:
        enc_lo, _, box, enc_hi, depth = heap[0]
        if enc_lo >= best_hi - _LOCATE_GAP:
            break  # min f is bracketed; every pending box is near-optimal
        parts = _split(box) if depth < max_depth else None
        if parts is not None and processed + len(parts) > box_budget:
            exhausted = True
            break
        heapq.heappop(heap)
        if parts is None:
            undecided.append((box, enc_hi))
            continue
        for child in parts:
            enclose(child, depth + 1)

    violations: tuple[ViolationBox, ...] = ()
    worst: ViolationBox | None = None
    if best_box is not None:
        # a refutation stands whatever the unsplittable boxes hold, and a box
        # wholly below theta always has an incumbent (itself or a lower one),
        # so none of them is an indeterminate leaf
        undecided = []
        band = min(theta, best_hi + _NEAR_BAND)
        near = sorted((h, lo_b, b) for lo_b, _, b, h, _ in heap
                      if h < band and b != best_box)
        violations = (ViolationBox(*best_box, best_hi),) + tuple(
            ViolationBox(*b, h) for h, _, b in near[:_VIOLATION_CAP - 1])
        worst = violations[0]
    else:  # the indeterminate leaves, then the boxes left pending; a box
        # without an enclosure (upper bound +inf) certifies no bound
        for box, enc_hi in undecided + [(b, h) for _, _, b, h, _ in heap]:
            if enc_hi < (math.inf if worst is None else worst.f_upper):
                worst = ViolationBox(*box, enc_hi)
    for box, _ in undecided:
        digest_acc += _leaf_digest("indeterminate", box)
    boundary = _edge_bounds(eta)
    if violations:
        status = "refuted"
    elif undecided:
        status = "indeterminate"
    elif exhausted:
        status = "budget_exhausted"
    elif min(boundary.low_strip, boundary.high_strip, boundary.corner) < theta:
        status = "indeterminate"
    else:
        status = "verified"
    return Certificate(
        threshold=theta,
        eta=eta,
        region=((lo, hi), (lo, hi)),
        boxes_processed=processed,
        max_depth_used=max_depth_used,
        verified=status == "verified",
        status=status,
        accepted_boxes=accepted,
        indeterminate_boxes=len(undecided),
        violation_boxes=violations,
        worst_box=worst,
        boundary=boundary,
        trace_digest=f"{digest_acc % _DIGEST_MOD:064x}",
    )
