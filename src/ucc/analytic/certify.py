"""Certified lower bounds for f on the eta-interior of the unit square.

``certify_lower_bound(theta, eta)`` runs an interval branch and bound over
[eta, 1-eta]^2.  Every box is enclosed once, by the mean-value form of f
(``intervals.f_mean_value``); if that neither proves f >= theta nor
refutes it, the box is split along its longer side.

When some box is certified to violate (enclosure entirely below theta),
the sweep stops and the remaining budget goes to a best-first global
minimization of f over the region, seeded with that box.  The reported
violation boxes are the minimization's incumbent and its near-optimal
neighbours, each one independently certified (enclosure hi < theta), so
refutations point at the bottom of the dip: the sub-level set of f can be
wide, but the reported boxes hug the global minimizer.

The resulting certificate covers ONLY the eta-interior.  The four boundary
strips of width eta are additionally scanned by dense pointwise sampling,
which is evidence, not proof; their report is kept separate and the
limitation is stated on every certificate.

Determinism: the traversal is a fixed-order depth-first walk, the
localization heap breaks ties by insertion order, all float operations are
IEEE double, and the trace digest is a multiset hash of the classified
cover leaves (per-leaf sha256, summed mod 2^256), so repeated runs with
equal parameters produce byte-identical certificates.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

from .intervals import Interval, f_mean_value
from .scalars import f_ratio

__all__ = [
    "Box",
    "ViolationBox",
    "BoundaryScan",
    "Certificate",
    "certify_lower_bound",
]

_DIGEST_MOD = 1 << 256
_LOCATE_GAP = 1e-9   # stop localizing once min f is bracketed this tightly
_NEAR_BAND = 1e-6    # report boxes whose certified hi is this close to best


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

    @property
    def longest_side(self) -> float:
        return max(self.x_hi - self.x_lo, self.y_hi - self.y_lo)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_lo + self.x_hi), 0.5 * (self.y_lo + self.y_hi))


class ViolationBox(NamedTuple):
    """A box on which f is certified to stay below the threshold."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    f_upper: float  # certified upper bound of f on the box


@dataclass(frozen=True)
class BoundaryScan:
    """Dense pointwise sampling of the four boundary strips (not certified)."""

    points_per_strip: int
    min_value: float
    min_location: tuple[float, float]
    all_above_threshold: bool


@dataclass(frozen=True)
class Certificate:
    """Outcome of one branch-and-bound run.

    ``verified`` is true iff every box of the interior partition was
    accepted within the budget.  ``violation_boxes`` are certified
    refutations clustered at the global minimizer (empty when verified).
    ``worst_box`` is the box with the smallest certified upper bound on f
    seen when verification failed for any reason, else None.  ``status``
    is one of ``verified``, ``refuted``, ``indeterminate``,
    ``budget_exhausted``.
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
    boundary: BoundaryScan
    trace_digest: str
    limitation: str = ("certificate covers only the eta-interior; boundary "
                       "strips are sampled, not certified")


def _split(box: Box) -> tuple[Box, Box] | None:
    """Bisect along the longer side; None if floats cannot split further."""
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


def _locate_minimum(
    theta: float,
    eta: float,
    seed: tuple[Box, Interval],
    budget: int,
    max_depth: int,
    cap: int,
) -> tuple[ViolationBox, ...]:
    """Best-first localization of the global minimum of f on the region.

    Standard interval minimization: pop the box with the smallest
    enclosure lower bound, split it, keep children that could still beat
    the incumbent upper bound.  Terminates when every surviving box has
    lower bound within _LOCATE_GAP of the incumbent, i.e. the global
    minimum is bracketed.  Because f has a unique interior minimizer, the
    incumbent and the surviving near-optimal boxes cluster around it.

    Returns up to ``cap`` boxes, incumbent first, each independently
    certified to satisfy f < theta on all of it.
    """
    lo_edge, hi_edge = eta, 1.0 - eta
    root = Box(lo_edge, hi_edge, lo_edge, hi_edge)
    root_enc = f_mean_value(root.x, root.y)
    seed_box, seed_enc = seed
    best_box, best_hi = seed_box, seed_enc.hi
    heap: list[tuple[float, int, Box, float, int]] = []
    counter = 0
    for box, enc, depth in ((root, root_enc, 0), (seed_box, seed_enc, 0)):
        if enc is not None:
            heapq.heappush(heap, (enc.lo, counter, box, enc.hi, depth))
            counter += 1
    processed = 0
    while heap and processed < budget:
        lo_b, _, box, hi_b, depth = heap[0]
        if lo_b >= best_hi - _LOCATE_GAP:
            break  # minimum bracketed; everything left is near-optimal
        heapq.heappop(heap)
        processed += 1
        parts = _split(box) if depth < max_depth else None
        if parts is None:
            continue
        for child in parts:
            enc = f_mean_value(child.x, child.y)
            if enc is None:
                continue
            if enc.hi < best_hi:
                best_hi = enc.hi
                best_box = child
            if enc.lo < best_hi - _LOCATE_GAP:
                heapq.heappush(heap, (enc.lo, counter, child, enc.hi, depth + 1))
                counter += 1
    out = [ViolationBox(best_box.x_lo, best_box.x_hi,
                        best_box.y_lo, best_box.y_hi, best_hi)]
    band = min(theta, best_hi + _NEAR_BAND)
    near = sorted(
        (hi_b, lo_b, box) for lo_b, _, box, hi_b, _ in heap
        if hi_b < band and box != best_box)
    for hi_b, _, box in near[:max(0, cap - 1)]:
        out.append(ViolationBox(box.x_lo, box.x_hi, box.y_lo, box.y_hi, hi_b))
    return tuple(out)


def _leaf_digest(status: str, box: Box) -> int:
    rec = f"{status}:{box.x_lo.hex()},{box.x_hi.hex()},{box.y_lo.hex()},{box.y_hi.hex()}"
    return int.from_bytes(hashlib.sha256(rec.encode("ascii")).digest(), "big")


def _scan_strips(theta: float, eta: float, strip_points: int) -> BoundaryScan:
    """Sample f on the four width-eta boundary strips of [0, 1]^2."""
    thin = max(2, math.isqrt(strip_points))
    long_ = max(2, strip_points // thin)

    def linspace(a: float, b: float, m: int) -> list[float]:
        step = (b - a) / (m - 1)
        pts = [a + i * step for i in range(m)]
        pts[-1] = b
        return pts

    thin_lo = linspace(0.0, eta, thin)
    thin_hi = linspace(1.0 - eta, 1.0, thin)
    full = linspace(0.0, 1.0, long_)

    best = math.inf
    best_at = (0.0, 0.0)
    for xs, ys in ((thin_lo, full), (thin_hi, full),
                   (full, thin_lo), (full, thin_hi)):
        for x in xs:
            for y in ys:
                v = f_ratio(x, y)
                if v < best:
                    best = v
                    best_at = (x, y)
    return BoundaryScan(points_per_strip=thin * long_, min_value=best,
                        min_location=best_at,
                        all_above_threshold=best >= theta)


def certify_lower_bound(
    theta: float = 0.809016,
    eta: float = 1e-4,
    max_depth: int = 60,
    box_budget: int = 10_000_000,
    violation_cap: int = 16,
    strip_points: int = 10_000,
) -> Certificate:
    """Branch-and-bound certificate that f >= theta on [eta, 1-eta]^2.

    Thresholds at or above the true minimum 1/(2 phi) are not rejected:
    the run then terminates with verified=false and refutation boxes
    localized at the global minimizer, which is itself a checkable
    statement about where f dips below theta.
    """
    if not 0.0 < eta < 0.1:
        raise ValueError(f"eta must be in (0, 0.1), got {eta}")
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive and finite, got {theta}")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if box_budget < 1:
        raise ValueError("box_budget must be at least 1")

    lo, hi = eta, 1.0 - eta
    root = Box(lo, hi, lo, hi)
    stack: list[tuple[Box, int]] = [(root, 0)]
    processed = 0
    accepted = 0
    indeterminate = 0
    max_depth_used = 0
    digest_acc = 0
    found: tuple[Box, Interval] | None = None
    worst: ViolationBox | None = None
    exhausted = False

    def note_leaf(status: str, box: Box, enc_hi: float) -> None:
        nonlocal digest_acc, worst
        digest_acc = (digest_acc + _leaf_digest(status, box)) % _DIGEST_MOD
        if status != "ok" and (worst is None or enc_hi < worst.f_upper):
            worst = ViolationBox(box.x_lo, box.x_hi, box.y_lo, box.y_hi, enc_hi)

    while stack:
        if processed >= box_budget:
            exhausted = True
            break
        box, depth = stack.pop()
        processed += 1
        if depth > max_depth_used:
            max_depth_used = depth

        enc = f_mean_value(box.x, box.y)
        if enc is not None and enc.lo >= theta:
            accepted += 1
            note_leaf("ok", box, enc.hi)
            continue
        if enc is not None and enc.hi < theta:
            # one certified violation settles the question; spend the rest
            # of the budget pinning down where f is smallest
            note_leaf("violation", box, enc.hi)
            found = (box, enc)
            break
        parts = _split(box) if depth < max_depth else None
        if parts is None:
            indeterminate += 1
            note_leaf("indeterminate", box,
                      enc.hi if enc is not None else math.inf)
            continue
        first, second = parts
        stack.append((second, depth + 1))
        stack.append((first, depth + 1))

    violations: tuple[ViolationBox, ...] = ()
    if found is not None:
        violations = _locate_minimum(
            theta, eta, found, max(10_000, box_budget - processed),
            max_depth, violation_cap)
        worst = violations[0]
    elif worst is None and stack:
        # budget ran out with nothing classified as failing; report the
        # pending box with the lowest certified upper bound (the stack is
        # at most 2 * max_depth entries, so this is cheap)
        for box, _ in stack:
            enc = f_mean_value(box.x, box.y)
            hi_val = enc.hi if enc is not None else math.inf
            if worst is None or hi_val < worst.f_upper:
                worst = ViolationBox(box.x_lo, box.x_hi,
                                     box.y_lo, box.y_hi, hi_val)
    verified = (not exhausted) and not violations and indeterminate == 0 and not stack
    if violations:
        status = "refuted"
    elif indeterminate:
        status = "indeterminate"
    elif exhausted or stack:
        status = "budget_exhausted"
    else:
        status = "verified"

    boundary = _scan_strips(theta, eta, strip_points)
    return Certificate(
        threshold=theta,
        eta=eta,
        region=((lo, hi), (lo, hi)),
        boxes_processed=processed,
        max_depth_used=max_depth_used,
        verified=verified,
        status=status,
        accepted_boxes=accepted,
        indeterminate_boxes=indeterminate,
        violation_boxes=violations,
        worst_box=worst,
        boundary=boundary,
        trace_digest=f"{digest_acc:064x}",
    )
