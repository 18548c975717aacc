"""Branch-and-bound certificates: soundness, statuses, determinism."""

import math
from fractions import Fraction

import pytest

import ucc
from ucc.analytic.intervals import TRANSCENDENTAL_SLACK, Interval, f_mean_value
from ucc.analytic import certify
from ucc.analytic.certify import Box, ViolationBox, _edge_bounds, _split


def test_split_bisects_longer_side():
    first, second = _split(Box(0.0, 0.4, 0.0, 0.1))
    assert first.x_hi == second.x_lo == pytest.approx(0.2)
    assert first.y_hi == 0.1  # y untouched


def test_split_cuts_edge_boxes_in_log_scale():
    # x spans [1e-4, 1e-2] from the 0-edge: cut at sqrt(1e-4 * 1e-2) = 1e-3
    first, second = _split(Box(1e-4, 1e-2, 0.3, 0.31))
    assert first.x_hi == second.x_lo == math.sqrt(1e-4 * 1e-2)
    assert (first.y_lo, first.y_hi) == (second.y_lo, second.y_hi) == (0.3, 0.31)
    # y spans the same distances from the 1-edge: cut at 1 - 1e-3
    lo, hi = 1.0 - 1e-2, 1.0 - 1e-4
    first, second = _split(Box(0.3, 0.31, lo, hi))
    assert first.y_hi == second.y_lo == 1.0 - math.sqrt((1.0 - hi) * (1.0 - lo))
    assert first.y_hi == pytest.approx(1.0 - 1e-3)
    assert (first.x_lo, first.x_hi) == (0.3, 0.31)
    # a box near (phi, phi) spans no decades: bisected along x (sides tie)
    first, second = _split(Box(0.6, 0.63, 0.6, 0.63))
    assert first.x_hi == second.x_lo == 0.5 * (0.6 + 0.63)
    assert (first.y_lo, first.y_hi) == (0.6, 0.63)


def test_mean_value_contains_truth():
    # the box near the minimizer, then boxes touching the eta = 1e-4 edges,
    # where the gradient enclosure is widest
    low, high = (1e-4, 2e-4), (1.0 - 2e-4, 1.0 - 1e-4)
    boxes = [((0.6, 0.63), (0.6, 0.63)),
             (low, low), (low, (0.6, 0.63)), (low, high),
             (high, (0.3, 0.31)), (high, high)]
    for (x0, x1), (y0, y1) in boxes:
        enc = f_mean_value(Interval(x0, x1), Interval(y0, y1))
        vals = [ucc.f_ratio(x0 + i * (x1 - x0) / 10, y0 + j * (y1 - y0) / 10)
                for i in range(11) for j in range(11)]
        assert enc is not None
        assert enc.lo <= min(vals) and max(vals) <= enc.hi, (x0, y0)


def test_verified_certificate_coarse():
    # far below the true minimum: a handful of boxes suffices
    cert = ucc.certify_lower_bound(theta=0.7, eta=0.01)
    assert cert.verified
    assert cert.status == "verified"
    assert cert.violation_boxes == ()
    assert cert.worst_box is None
    assert cert.indeterminate_boxes == 0
    assert cert.accepted_boxes > 0
    assert cert.boxes_processed < 5000
    assert cert.region == ((0.01, 0.99), (0.01, 0.99))
    # the cover itself: a change of search order must not change it
    assert cert.boxes_processed == 239
    assert cert.accepted_boxes == 109
    assert cert.max_depth_used == 11
    assert cert.trace_digest == (
        "f177d2d89fb660a2e11d3452665f0bc571ed9d5996193b94d2146b4db61de6a4")


def _area_where_x_le_y(a, b, c, d):
    """Exact area of {x <= y} inside the box [a, b] x [c, d] (Fractions)."""
    area = max(Fraction(0), min(b, c) - a) * (d - c)  # columns x < c: all of [c, d]
    x0, x1 = max(a, c), min(b, d)  # columns c <= x <= d: y in [x, d]
    if x0 < x1:
        area += ((d - x0) ** 2 - (d - x1) ** 2) / 2
    return area


def test_verified_cover_tiles_the_half_square(monkeypatch):
    # mirrored boxes are dropped, so the accepted leaves must tile exactly
    # the part of [eta, 1-eta]^2 where x <= y, and nothing wholly beyond it
    leaves = []

    def record(status, box):
        leaves.append((status, box))
        return digest(status, box)

    digest = certify._leaf_digest
    monkeypatch.setattr(certify, "_leaf_digest", record)
    cert = ucc.certify_lower_bound(theta=0.7, eta=0.01)
    assert cert.status == "verified"
    assert len(leaves) == cert.accepted_boxes == 109
    assert all(status == "ok" and box.x_lo <= box.y_hi for status, box in leaves)
    area = sum(_area_where_x_le_y(*map(Fraction, box)) for _, box in leaves)
    (lo, hi), _ = cert.region
    assert area == (Fraction(hi) - Fraction(lo)) ** 2 / 2


def test_refuted_certificate_boxes_are_sound_and_localized():
    cert = ucc.certify_lower_bound(theta=0.95, eta=0.01)
    assert not cert.verified
    assert cert.status == "refuted"
    assert cert.violation_boxes
    for vb in cert.violation_boxes:
        assert vb.f_upper < 0.95
        # every certified violating box hugs the unique minimizer
        cx = 0.5 * (vb.x_lo + vb.x_hi)
        cy = 0.5 * (vb.y_lo + vb.y_hi)
        assert math.hypot(cx - ucc.PHI, cy - ucc.PHI) < 1e-2
    assert cert.worst_box == cert.violation_boxes[0]
    # the incumbent's certified bound brackets the true minimum from above
    assert ucc.HALF_INV_PHI <= cert.worst_box.f_upper < ucc.HALF_INV_PHI + 1e-6


def test_verdicts_next_to_the_minimum():
    # thresholds 4e-9 below and 6e-9 above 1/(2 phi): the sweep must
    # resolve f to within that band around the minimizer
    below = ucc.certify_lower_bound(theta=0.80901699, eta=1e-2)
    assert below.status == "verified"
    above = ucc.certify_lower_bound(theta=0.809017, eta=1e-2)
    assert above.status == "refuted"
    assert ucc.HALF_INV_PHI <= above.worst_box.f_upper < ucc.HALF_INV_PHI + 1e-6
    # boxes straddling f = theta are never bisected down to max_depth
    assert above.indeterminate_boxes == 0


def test_violation_cap_limits_report():
    cert = ucc.certify_lower_bound(theta=0.95, eta=0.01)
    assert len(cert.violation_boxes) == 16
    assert all(vb.f_upper < 0.95 for vb in cert.violation_boxes)


def test_budget_exhaustion():
    cert = ucc.certify_lower_bound(theta=0.809016, box_budget=50)
    assert not cert.verified
    assert cert.status == "budget_exhausted"
    assert cert.worst_box is not None


def test_depth_exhaustion_reports_indeterminate():
    cert = ucc.certify_lower_bound(theta=0.809016, max_depth=4)
    assert not cert.verified
    assert cert.status == "indeterminate"
    assert cert.indeterminate_boxes > 0


def test_shallow_refutation_counts_no_indeterminate_leaves():
    # at depth 20 the minimum cannot be bracketed within the locate gap, so
    # many unsplittable boxes are popped; none can change the refutation
    cert = ucc.certify_lower_bound(theta=0.81, eta=1e-4, max_depth=20)
    assert cert.status == "refuted"
    assert cert.indeterminate_boxes == 0
    assert cert.boxes_processed == 2_433
    assert cert.violation_boxes == (ViolationBox(
        0.6171640625000001, 0.6181404296875002,
        0.6171640625000001, 0.6181404296875002, 0.8090201163440421),)
    assert cert.worst_box == cert.violation_boxes[0]


def test_certificates_are_deterministic():
    a = ucc.certify_lower_bound(theta=0.8085, eta=1e-3)
    b = ucc.certify_lower_bound(theta=0.8085, eta=1e-3)
    assert a == b
    assert a.trace_digest == b.trace_digest
    c = ucc.certify_lower_bound(theta=0.8080, eta=1e-3)
    assert c.trace_digest != a.trace_digest  # leaves genuinely differ


def test_parameter_validation():
    with pytest.raises(ValueError):
        ucc.certify_lower_bound(eta=0.0)
    with pytest.raises(ValueError):
        ucc.certify_lower_bound(eta=0.2)
    with pytest.raises(ValueError):
        ucc.certify_lower_bound(theta=-1.0)
    with pytest.raises(ValueError):
        ucc.certify_lower_bound(theta=math.inf)
    with pytest.raises(ValueError):
        ucc.certify_lower_bound(box_budget=0)
    with pytest.raises(ValueError):
        ucc.certify_lower_bound(max_depth=0)


def test_threshold_above_minimum_is_not_rejected():
    # equality at the minimizer makes certification impossible, but the
    # run must degrade to a refutation, not an exception
    cert = ucc.certify_lower_bound(theta=0.8091, eta=0.01)
    assert cert.status == "refuted"


def _samples(a, b, m):
    """m evenly spaced points of [a, b], and m more crowding toward each end."""
    steps = [i / (m - 1) for i in range(m)] + [2.0 ** -j for j in range(1, m)]
    return sorted({min(b, a + (b - a) * t) for t in steps}
                  | {max(a, b - (b - a) * t) for t in steps})


def _scan_four_strips(eta, delta, m=30):
    """Sampled minimum of f on each region an edge bound covers, the
    mirrored strips included: the oracle that the proved bounds undercut."""
    hi, edge = 1.0 - eta, 1.0 - delta
    regions = {"low_strip": (_samples(0.0, eta, m), _samples(0.0, 1.0, m)),
               "high_strip": (_samples(hi, 1.0, m), _samples(0.0, edge, m)),
               "corner": (_samples(hi, 1.0, m), _samples(edge, 1.0, m))}
    return {name: min(min(ucc.f_ratio(x, y), ucc.f_ratio(y, x))
                      for x in xs for y in ys)
            for name, (xs, ys) in regions.items()}


EDGE_ETAS = [1e-2, 1e-4, 1e-6, 1e-12]


@pytest.mark.parametrize("eta", EDGE_ETAS)
def test_edge_bounds_undercut_the_sampled_minima(eta):
    bounds = _edge_bounds(eta)
    sampled = _scan_four_strips(eta, bounds.delta)
    for name, value in sampled.items():
        assert getattr(bounds, name) <= value, name


def _edge_closed_forms(eta, delta, mpmath):
    """The three bounds at 50 digits, with the g values they are built from."""
    hi = mpmath.mpf(1.0 - eta)
    a, log2e = 1 - hi, 1 / mpmath.log(2)

    def g(t):
        return -mpmath.log(t, 2) - (1 - t) * mpmath.log(1 - t, 2) / t

    g_eta, g_hi, g_edge = g(mpmath.mpf(eta)), g(hi), g(1 - mpmath.mpf(delta))
    s = a + mpmath.mpf(delta)
    big_l = -mpmath.log(s, 2)
    return {"low_strip": g_eta / (g_eta + log2e),
            "high_strip": g_edge / (g_hi + g_edge),
            "corner": (1 - a) * (big_l + (1 - s) * log2e) / (big_l + 1 + log2e),
            "g_hi": g_hi, "g_edge": g_edge}


@pytest.mark.parametrize("eta", EDGE_ETAS + [0.05, 0.0999, 2.0 ** -53])
def test_edge_bounds_match_their_closed_forms(eta):
    mpmath = pytest.importorskip("mpmath")
    bounds = _edge_bounds(eta)
    edge = 1.0 - bounds.delta
    assert bounds.delta == 1.0 - edge and edge >= 0.5  # 1-delta is a float
    with mpmath.workdps(50):
        exact = _edge_closed_forms(eta, bounds.delta, mpmath)
        for name in ("low_strip", "high_strip", "corner"):
            assert getattr(bounds, name) <= exact[name], name
        for name in ("low_strip", "corner"):
            assert exact[name] - getattr(bounds, name) <= 1e-12, name
        # g(hi) and g(1-delta) are small and carry an absolute slack, so the
        # high strip may lose what that slack costs, and nothing more
        slack = TRANSCENDENTAL_SLACK
        g_hi, g_edge = exact["g_hi"], exact["g_edge"]
        floor = (g_edge - slack) / (g_hi + g_edge + 2 * slack)
        assert bounds.high_strip >= floor - 1e-12


def test_edge_bounds_at_pinned_etas():
    tight = _edge_bounds(1e-4)
    assert min(tight[1:]) >= 0.9
    assert tight.delta == pytest.approx(1.6e-3, rel=1e-6)
    coarse = _edge_bounds(1e-2)
    assert min(coarse[1:]) == coarse.corner >= 0.8091
    assert coarse.delta == pytest.approx(0.0673, rel=1e-3)


def test_low_edge_bound_leaves_the_interior_verified_but_indeterminate():
    # theta 1/(2 phi) - 1e-6 holds on the whole square, but at eta = 0.05
    # the edge bounds (about 0.69) cannot show it
    cert = ucc.certify_lower_bound(theta=0.809016, eta=0.05)
    assert cert.status == "indeterminate" and not cert.verified
    assert cert.indeterminate_boxes == 0 and cert.violation_boxes == ()
    assert cert.worst_box is None
    assert 0.69 <= min(cert.boundary[1:]) < 0.7


def test_eta_at_its_floor_returns_a_certificate():
    # the smallest eta with 1 - eta < 1: g(1-delta) at the first rungs is
    # within the slack of 0, and those rungs must be skipped, not divided by
    cert = ucc.certify_lower_bound(theta=0.7, eta=2.0 ** -53, box_budget=100)
    assert cert.status == "budget_exhausted"
    assert cert.region == ((2.0 ** -53, 1.0 - 2.0 ** -53),) * 2
    assert min(cert.boundary[1:]) >= 0.97


def test_worst_box_needs_a_finite_upper_bound():
    # at eta = 2^-53 the root box has no enclosure (g near 1 is within the
    # slack of 0), so a budget that cannot split it certifies no upper bound
    for budget in (1, 2):
        cert = ucc.certify_lower_bound(theta=0.7, eta=2.0 ** -53, box_budget=budget)
        assert (cert.status, cert.boxes_processed) == ("budget_exhausted", 1)
        assert cert.worst_box is None
    cert = ucc.certify_lower_bound(theta=0.7, eta=2.0 ** -53, box_budget=3)
    assert math.isfinite(cert.worst_box.f_upper)
