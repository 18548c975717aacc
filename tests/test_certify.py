"""Branch-and-bound certificates: soundness, statuses, determinism."""

import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ucc
from ucc.analytic.intervals import TRANSCENDENTAL_SLACK, Interval, f_mean_value
from ucc.analytic import certify
from ucc.analytic.certify import Box, ViolationBox, _edge_bounds, _split
from ucc.cli import run_cli


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
    assert cert.accepted_boxes > 0
    assert cert.boxes_processed < 5000
    # the cover itself, and its preorder trail
    assert cert.boxes_processed == 239
    assert cert.accepted_boxes == 109
    assert cert.max_depth_used == 11
    assert cert.trace_digest == (
        "888a58b1f6c61d3a66085512dfcb29ef22079ae49ef948e652c2684067b37a74")


def test_verified_cover_at_the_default_threshold():
    # theta = 0.809016 is within 1e-6 of the minimum: the cover, pinned
    cert = ucc.certify_lower_bound(theta=0.809016, eta=1e-4)
    assert cert.status == "verified"
    assert (cert.boxes_processed, cert.accepted_boxes,
            cert.max_depth_used) == (2_471, 1_138, 22)
    assert cert.trace_digest == (
        "e2323615550b5cb39d51ed47b5c7a5bce10cb7afc843d787f3f6e5e9ac578568")


def _area_where_x_le_y(a, b, c, d):
    """Exact area of {x <= y} inside the box [a, b] x [c, d] (Fractions)."""
    area = max(Fraction(0), min(b, c) - a) * (d - c)  # columns x < c: all of [c, d]
    x0, x1 = max(a, c), min(b, d)  # columns c <= x <= d: y in [x, d]
    if x0 < x1:
        area += ((d - x0) ** 2 - (d - x1) ** 2) / 2
    return area


def _run_with_trail(monkeypatch, theta, eta):
    """Certify with no box budget, and keep the trail whose sha256 is the
    trace digest."""
    trails = []

    def record(trail):
        trails.append(bytes(trail))
        return digest(trail)

    digest = certify._trail_digest
    monkeypatch.setattr(certify, "_trail_digest", record)
    cert = ucc.certify_lower_bound(theta=theta, eta=eta)
    (trail,) = trails
    assert len(trail) == cert.boxes_processed
    assert hashlib.sha256(trail).hexdigest() == cert.trace_digest
    return cert, trail


def _replay(trail, theta, eta):
    """Rebuild a cover from its trail, one byte per box in preorder, from
    the root box with mirrored children dropped; the accepted leaves.

    0: the enclosure proves f >= theta.  1: the box splits below the depth
    limit and its enclosure leaves it undecided.  2: the box cannot be
    split and its enclosure leaves it undecided.  3: the enclosure lies
    wholly below theta.  A 2 or a 3 ends the walk, so it must be the last
    byte, and a trail of 0s and 1s must cover the whole half square.  Any
    other byte, a byte left over or one missing fails.  The enclosure is
    looked up in the certifier's module, so a test that patches it there
    patches the replay too.
    """
    stack = [(Box(eta, 1.0 - eta, eta, 1.0 - eta), 0)]
    leaves = []
    for i, fate in enumerate(trail):
        assert stack, f"byte {i} is left over"
        box, depth = stack.pop()
        parts = _split(box) if depth < certify._MAX_DEPTH else None
        enc = certify.f_mean_value(box.x, box.y)
        lo, hi = (enc.lo, enc.hi) if enc is not None else (-math.inf, math.inf)
        if fate == 0:
            assert lo >= theta, i
            leaves.append(box)
        elif fate == 1:
            assert parts is not None and lo < theta <= hi, i
            stack.extend((child, depth + 1) for child in reversed(parts)
                         if child.x_lo <= child.y_hi)
        else:
            assert i == len(trail) - 1, f"byte {i} ends the walk, but the trail goes on"
            assert (fate == 3 and hi < theta
                    or fate == 2 and parts is None and lo < theta <= hi), i
            return leaves
    assert not stack, "the trail ends before the cover"
    return leaves


def test_verified_cover_tiles_the_half_square(monkeypatch):
    for theta, eta in ((0.7, 0.01), (0.809016, 1e-4)):
        cert, trail = _run_with_trail(monkeypatch, theta, eta)
        assert cert.status == "verified"
        leaves = _replay(trail, theta, eta)
        assert len(leaves) == cert.accepted_boxes == trail.count(0)
        # mirrored boxes are dropped, so the accepted leaves must tile exactly
        # the part of [eta, 1-eta]^2 where x <= y, and nothing wholly beyond it
        assert all(box.x_lo <= box.y_hi for box in leaves)
        area = sum(_area_where_x_le_y(*map(Fraction, box)) for box in leaves)
        assert area == (Fraction(1.0 - eta) - Fraction(eta)) ** 2 / 2
        # a verified trail is 0s and 1s
        assert set(trail) == {0, 1}
        # one flipped byte, a byte too many or one too few: the replay fails
        for i in (0, trail.index(0), len(trail) // 2, len(trail) - 1):
            for fate in {0, 1, 2, 3} - {trail[i]}:
                bad = trail[:i] + bytes([fate]) + trail[i + 1:]
                # a 2 or a 3 before the last byte fails on its place alone
                match = "ends the walk" if fate >= 2 and i < len(trail) - 1 else None
                with pytest.raises(AssertionError, match=match):
                    _replay(bad, theta, eta)
        for bad in (trail + b"\0", trail[:-1]):
            with pytest.raises(AssertionError):
                _replay(bad, theta, eta)


# the last two sit below the eta floor (test_verified_just_above_the_eta_floor)
STOPPED_RUNS = [(ucc.HALF_INV_PHI - 1e-13, 1e-4, 2_184),
                (0.7, 1e-14, 4_230),
                (0.7, 1e-15, 4_797)]


def test_verified_just_above_the_eta_floor():
    # the mean-value enclosure next to the corner (1, 1), not the edge
    # bounds, sets how small eta may be: theta 0.7, far below the minimum,
    # verifies at eta 1e-13, but from 1e-14 down (STOPPED_RUNS) the walk
    # stops at a box one float wide by (1, 1) whose bound says nothing
    cert = ucc.certify_lower_bound(theta=0.7, eta=1e-13)
    assert (cert.status, cert.boxes_processed) == ("verified", 3_663)


@pytest.mark.parametrize("theta, eta, boxes", STOPPED_RUNS)
def test_walk_stops_at_its_first_undecided_leaf(monkeypatch, theta, eta, boxes):
    # just below 1/(2 phi) the boxes around (phi, phi) cannot be settled, and at
    # eta <= 1e-14 neither can a box by (1, 1) that floats no longer split:
    # the walk ends at the first such leaf, with no budget to cut it
    cert, trail = _run_with_trail(monkeypatch, theta, eta)
    assert (cert.status, cert.boxes_processed) == ("indeterminate", boxes)
    assert cert.violation_boxes == ()
    # exactly one byte of the trail is 2 or more, and it is the last
    assert [i for i, fate in enumerate(trail) if fate >= 2] == [len(trail) - 1]
    assert trail[-1] == 2
    assert len(_replay(trail, theta, eta)) == cert.accepted_boxes
    for more in (b"\0", b"\1", b"\2"):
        with pytest.raises(AssertionError, match="ends the walk"):
            _replay(trail + more, theta, eta)
    leaf = cert.worst_box
    if eta == 1e-4:  # a depth-60 box at (phi, phi), its bound below 1
        assert cert.max_depth_used == 60
        assert math.dist((leaf.x_lo, leaf.y_lo), (ucc.PHI, ucc.PHI)) < 1e-5
        assert theta <= leaf.f_upper < 1.0
    else:  # by (1, 1) the leaf's bound is 1 or more, which says nothing
        assert leaf is None


def _dip_at(px, py, width):
    """An enclosure of f that reads [0, 0.5] on every box narrower than
    ``width`` that holds the point (px, py), [0, inf] on every wider one,
    and the true enclosure elsewhere: a stand-in for a violation, which
    f itself never shows below 1/(2 phi)."""
    def enclosure(x, y):
        if not (x.lo <= px <= x.hi and y.lo <= py <= y.hi):
            return f_mean_value(x, y)
        narrow = x.hi - x.lo < width and y.hi - y.lo < width
        return Interval(0.0, 0.5 if narrow else math.inf)
    return enclosure


def test_refuted_certificate_boxes_are_sound_and_localized(monkeypatch):
    # above the minimum 1/(2 phi), the point (phi, phi) is the refutation:
    # no box is enclosed, the witness sits exactly at the minimizer, and its
    # bound is the least float above f(phi, phi) = 1/(2 phi)
    calls = []
    monkeypatch.setattr(certify, "f_mean_value", lambda x, y: calls.append((x, y)))
    witness = ViolationBox(ucc.PHI, ucc.PHI, ucc.PHI, ucc.PHI, ucc.HALF_INV_PHI)
    for theta, eta in ((0.81, 1e-4), (0.95, 0.01)):
        cert = ucc.certify_lower_bound(theta=theta, eta=eta)
        assert not cert.verified
        assert cert.status == "refuted"
        assert cert.violation_boxes == (witness,)
        assert cert.worst_box == witness
        assert (cert.boxes_processed, cert.accepted_boxes,
                cert.max_depth_used) == (0, 0, 0)
        assert cert.trace_digest == hashlib.sha256(b"").hexdigest()  # empty trail
    assert calls == []


def test_refutation_starts_at_the_minimum():
    # HALF_INV_PHI is the least float above 1/(2 phi): refuted by the point
    cert = ucc.certify_lower_bound(theta=ucc.HALF_INV_PHI)
    assert (cert.status, cert.boxes_processed) == ("refuted", 0)
    assert cert.worst_box.f_upper == ucc.HALF_INV_PHI
    # the float below it is under the minimum: the walk runs, cannot settle
    # the boxes around (phi, phi), and ends at the first of them
    theta = math.nextafter(ucc.HALF_INV_PHI, 0.0)
    cert = ucc.certify_lower_bound(theta=theta)
    assert (cert.status, cert.boxes_processed) == ("indeterminate", 2_096)
    assert cert.violation_boxes == ()
    assert theta <= cert.worst_box.f_upper < 1.0


def _above_the_minimum(theta, mpmath):
    """theta > 1/(2 phi) = (1 + sqrt 5)/4, decided at 50 digits."""
    with mpmath.workdps(50):
        gap = mpmath.mpf(theta) - (1 + mpmath.sqrt(5)) / 4
        assert abs(gap) > mpmath.mpf(10) ** -40  # no float sits that close
        return gap > 0


def _assert_decided_as_the_oracle(theta, mpmath):
    # one box of budget: above the minimum the point refutes before any
    # box, below it the walk takes its one box and is cut
    cert = ucc.certify_lower_bound(theta=theta, box_budget=1)
    if _above_the_minimum(theta, mpmath):
        assert (cert.status, cert.boxes_processed) == ("refuted", 0), theta
    else:
        assert (cert.status, cert.boxes_processed) == ("budget_exhausted", 1), theta


def test_exact_rule_matches_the_oracle_next_to_the_minimum():
    mpmath = pytest.importorskip("mpmath")
    below = above = ucc.HALF_INV_PHI
    thetas = [below]
    for _ in range(64):  # every float within 64 ulps of HALF_INV_PHI
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
        thetas += [below, above]
    for theta in thetas:
        _assert_decided_as_the_oracle(theta, mpmath)
    assert not _above_the_minimum(math.nextafter(ucc.HALF_INV_PHI, 0.0), mpmath)
    assert _above_the_minimum(ucc.HALF_INV_PHI, mpmath)


@given(st.floats(min_value=0.5, max_value=1.0))
def test_exact_rule_matches_the_oracle_on_the_unit_half(theta):
    mpmath = pytest.importorskip("mpmath")
    _assert_decided_as_the_oracle(theta, mpmath)


def test_sweep_stops_at_its_first_violation(monkeypatch):
    # an enclosure that dips below theta = 0.7 around (0.3, 0.5) stands in
    # for a violation: the walk must stop at the first box wholly below
    # theta, report only that box, and end its trail with a 3
    monkeypatch.setattr(certify, "f_mean_value", _dip_at(0.3, 0.5, 1e-3))
    cert, trail = _run_with_trail(monkeypatch, 0.7, 0.01)
    assert cert.status == "refuted" and not cert.verified
    (witness,) = cert.violation_boxes
    assert cert.worst_box == witness
    assert witness.f_upper == 0.5
    assert witness.x_lo <= 0.3 <= witness.x_hi and witness.y_lo <= 0.5 <= witness.y_hi
    assert trail[-1] == 3 and set(trail[:-1]) <= {0, 1}
    assert len(_replay(trail, 0.7, 0.01)) == cert.accepted_boxes


def test_certified_violation_below_the_minimum_exits_1(monkeypatch, capsys):
    # f >= 1/(2 phi) everywhere, so a box below a theta under it would
    # refute the lemma itself: the one certify run that exits 1
    monkeypatch.setattr(certify, "f_mean_value", _dip_at(0.3, 0.5, 1e-3))
    code = run_cli(["analytic", "certify", "--theta", "0.7", "--eta", "0.01"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    obj = json.loads(captured.out)
    assert obj["status"] == "refuted"
    assert obj["worst_box"] == obj["violation_boxes"][0]


def test_verdicts_next_to_the_minimum():
    # 4e-9 below 1/(2 phi) the sweep must resolve f to within that band
    # around the minimizer; 6e-9 above it the point (phi, phi) refutes
    below = ucc.certify_lower_bound(theta=0.80901699, eta=1e-2)
    assert below.status == "verified"
    above = ucc.certify_lower_bound(theta=0.809017, eta=1e-2)
    assert (above.status, above.boxes_processed) == ("refuted", 0)
    assert above.worst_box.f_upper == ucc.HALF_INV_PHI


def test_budget_exhaustion():
    # a budget cut stops the walk at no box, so it reports none
    for budget in (50, 1_000):
        cert = ucc.certify_lower_bound(theta=0.809016, box_budget=budget)
        assert not cert.verified
        assert (cert.status, cert.boxes_processed) == ("budget_exhausted", budget)
        assert cert.worst_box is None
    # the walk's own stop on its last allowed enclosure is no budget cut
    theta = ucc.HALF_INV_PHI - 1e-13
    cert = ucc.certify_lower_bound(theta=theta, box_budget=2_184)
    assert cert.status == "indeterminate" and cert.worst_box is not None
    cert = ucc.certify_lower_bound(theta=theta, box_budget=2_183)
    assert cert.status == "budget_exhausted" and cert.worst_box is None


def test_depth_exhaustion_reports_indeterminate(monkeypatch):
    monkeypatch.setattr(certify, "_MAX_DEPTH", 4)
    cert = ucc.certify_lower_bound(theta=0.809016)
    assert not cert.verified
    assert cert.status == "indeterminate"
    assert cert.max_depth_used == 4  # it ended at its first depth-4 leaf


def test_certificates_are_deterministic():
    a = ucc.certify_lower_bound(theta=0.8085, eta=1e-3)
    b = ucc.certify_lower_bound(theta=0.8085, eta=1e-3)
    assert a == b
    assert a.trace_digest == b.trace_digest
    c = ucc.certify_lower_bound(theta=0.8080, eta=1e-3)
    assert c.trace_digest != a.trace_digest  # the covers genuinely differ


def test_parameter_validation():
    with pytest.raises(ValueError):
        ucc.certify_lower_bound(eta=0.0)
    with pytest.raises(ValueError):
        ucc.certify_lower_bound(eta=0.2)
    # refused before the exact rule: Fraction(nan) and Fraction(inf) would
    # raise errors of their own
    for theta in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-300, -1.0):
        with pytest.raises(ValueError, match="theta must be positive and finite"):
            ucc.certify_lower_bound(theta=theta)
    with pytest.raises(ValueError):
        ucc.certify_lower_bound(box_budget=0)


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
    assert cert.violation_boxes == ()
    assert cert.worst_box is None
    assert 0.69 <= min(cert.boundary[1:]) < 0.7


def test_eta_at_its_floor_returns_a_certificate():
    # the smallest eta with 1 - eta < 1: g(1-delta) at the first rungs is
    # within the slack of 0, and those rungs must be skipped, not divided by
    cert = ucc.certify_lower_bound(theta=0.7, eta=2.0 ** -53, box_budget=100)
    assert cert.status == "budget_exhausted"
    assert min(cert.boundary[1:]) >= 0.97


def test_worst_box_needs_a_finite_upper_bound(monkeypatch):
    # a budget cut stops at no box.  Without one, the walk at eta = 2^-53
    # ends at a leaf by (1, 1) that floats no longer split, and its
    # enclosure reaches 1 or more (or there is none); as f <= 1, such a
    # bound says nothing, so no box is reported
    for budget in (1, 2, 100, 1000):
        cert = ucc.certify_lower_bound(theta=0.7, eta=2.0 ** -53, box_budget=budget)
        assert (cert.status, cert.boxes_processed) == ("budget_exhausted", budget)
        assert cert.worst_box is None, budget
    enclosures = []
    monkeypatch.setattr(certify, "f_mean_value",
                        lambda x, y: enclosures.append(f_mean_value(x, y)) or enclosures[-1])
    cert = ucc.certify_lower_bound(theta=0.7, eta=2.0 ** -53)
    assert (cert.status, cert.worst_box) == ("indeterminate", None)
    assert enclosures[-1] is None or enclosures[-1].hi >= 1.0


def test_f_is_at_most_one():
    # the bound that lets worst_box drop upper bounds of 1 or more
    # (proved in the certify_lower_bound docstring), sampled on 399^2
    # interior points and on points within 1e-15..1e-3 of each edge
    grid = [i / 400 for i in range(1, 400)]
    near = [t for e in (1e-15, 1e-9, 1e-6, 1e-3) for t in (e, 1.0 - e)]
    points = [*grid, *near]
    assert max(ucc.f_ratio(x, y) for x in points for y in points) <= 1.0 + 1e-12


def test_walk_keeps_no_per_leaf_state():
    # a verified cover with thousands of accepted leaves: the walk keeps
    # their count and one trail byte each, not the leaves
    tracemalloc.start()
    try:
        cert = ucc.certify_lower_bound(theta=0.809016, eta=1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (cert.status, cert.boxes_processed, cert.accepted_boxes) == (
        "verified", 5_799, 2_702)
    assert peak < 256 * 1024
