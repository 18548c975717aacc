"""Scalar landscape: entropy ratios, the minimizer, and interval enclosures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucc
from ucc.analytic import scalars
from ucc.analytic.intervals import (
    LOG2E,
    TRANSCENDENTAL_SLACK,
    Interval,
    f_gradient_enclosure,
    f_mean_value,
    f_point_enclosure,
)
from ucc.analytic.scalars import big_g_of, g_of, g_prime_of

# independently frozen values (big-int/mpmath-free: evaluated from the
# closed forms with 53-bit floats, cross-checked at higher precision)
H_QUARTER = 0.8112781244591328          # h(1/4) = 2 - (3/4) log2 3
H_PSI = 0.9594187282227441
R_HALF = 1.6225562489182657             # diag ratio at 1/2 = 2 h(1/4)
R_LEFT = 1.902069386334583              # diag ratio at 1e-4
R_RIGHT = 1.8643189861522151            # diag ratio at 1 - 1e-4
R_NEAR_ONE = 1.9064304750203427         # diag ratio at 1 - 1e-6
BIG_G_QUARTER = -1.6601499971153745     # G(1/4) = 4 (log2 3 - 2)

interior = st.floats(min_value=1e-6, max_value=1.0 - 1e-6,
                     allow_nan=False, allow_infinity=False)


def test_constants_identities():
    assert ucc.PHI == pytest.approx((math.sqrt(5) - 1) / 2, abs=0)
    assert ucc.PSI == 1.0 - ucc.PHI
    assert abs(ucc.PHI ** 2 + ucc.PHI - 1.0) < 1e-15
    assert ucc.HALF_INV_PHI == pytest.approx(1 / (2 * ucc.PHI), abs=5e-16)
    # 1 - psi = 2 psi - psi^2 is exact in the reals; floats agree closely
    assert abs((1 - ucc.PSI) - (2 * ucc.PSI - ucc.PSI ** 2)) < 1e-15


def test_binary_entropy_pinned_values():
    assert ucc.binary_entropy(0.5) == 1.0
    assert ucc.binary_entropy(0.0) == 0.0
    assert ucc.binary_entropy(1.0) == 0.0
    assert ucc.binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)
    assert ucc.binary_entropy(0.25) == pytest.approx(2 - 0.75 * math.log2(3), abs=1e-15)
    assert ucc.binary_entropy(ucc.PSI) == pytest.approx(H_PSI, abs=1e-15)


@given(interior)
@settings(max_examples=200)
def test_binary_entropy_symmetric(x):
    assert ucc.binary_entropy(x) == pytest.approx(ucc.binary_entropy(1.0 - x), abs=2e-15)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        ucc.binary_entropy(-0.1)
    with pytest.raises(ValueError):
        ucc.binary_entropy(1.1)


def test_g_pinned_values():
    assert g_of(0.5) == 2.0
    assert g_of(0.25) == pytest.approx(4 * H_QUARTER, abs=1e-14)
    assert g_prime_of(0.5) == -4.0  # log2(1/2) / (1/4)
    assert big_g_of(0.5) == -2.0
    assert big_g_of(0.25) == pytest.approx(BIG_G_QUARTER, abs=1e-14)


def test_big_g_three_quarters():
    assert big_g_of(0.75) == pytest.approx(math.log2(0.25) / 0.75, abs=1e-15)
    assert big_g_of(0.75) == pytest.approx(-8 / 3, abs=1e-14)


def test_g_prime_matches_finite_differences():
    # acceptance-grade derivative check, run at module scale too
    delta = 1e-6
    xs = np.linspace(0.01, 0.99, 1000)
    worst = max(abs(g_prime_of(x) - (g_of(x + delta) - g_of(x - delta)) / (2 * delta))
                for x in xs)
    assert worst <= 1e-5


def test_big_g_strictly_decreasing():
    xs = np.linspace(1e-4, 1 - 1e-4, 10_000)
    vals = [big_g_of(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_g_family_bundle():
    assert (g_of(0.5), g_prime_of(0.5), big_g_of(0.5)) == (2.0, -4.0, -2.0)


def test_f_pinned_values():
    assert ucc.f_ratio(ucc.PHI, ucc.PHI) == ucc.HALF_INV_PHI
    assert ucc.f_ratio(0.5, 0.5) == pytest.approx(H_QUARTER, abs=1e-15)
    assert ucc.f_ratio(0.0, 0.7) == 1.0
    assert ucc.f_ratio(0.3, 1.0) == 1.0
    assert ucc.f_ratio(1.0, 1.0) == 1.0


@given(interior, interior)
@settings(max_examples=300)
def test_f_symmetric_exactly(x, y):
    assert ucc.f_ratio(x, y) == ucc.f_ratio(y, x)


@given(interior, interior)
@settings(max_examples=300)
def test_f_identity_with_g(x, y):
    # f(x,y) (g(x)+g(y)) = g(xy) to 1e-10 relative
    lhs = ucc.f_ratio(x, y) * (g_of(x) + g_of(y))
    rhs = g_of(x * y)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_f_below_one_in_interior():
    xs = np.linspace(0.01, 0.99, 99)
    assert all(ucc.f_ratio(float(x), float(y)) < 1.0 for x in xs for y in xs)


def test_f_above_half_inv_phi_on_grid():
    xs = np.linspace(0.05, 0.95, 61)
    m = min(ucc.f_ratio(float(x), float(y)) for x in xs for y in xs)
    assert m >= ucc.HALF_INV_PHI - 1e-12


def test_diagonal_ratio_pinned_endpoints():
    assert ucc.diagonal_ratio(1e-4) == pytest.approx(R_LEFT, abs=1e-12)
    assert ucc.diagonal_ratio(1 - 1e-4) == pytest.approx(R_RIGHT, abs=1e-12)
    assert ucc.diagonal_ratio(1 - 1e-6) == pytest.approx(R_NEAR_ONE, abs=1e-12)
    assert ucc.diagonal_ratio(0.5) == pytest.approx(R_HALF, abs=1e-12)
    assert ucc.diagonal_ratio(1e-4) > 1.9
    assert ucc.diagonal_ratio(1 - 1e-6) > 1.9


def test_diagonal_ratio_equals_f_rescaled():
    # f(x,x) = g(x^2) / (2 g(x)), so the diagonal ratio is 2 f(x,x)
    for x in (0.2, 0.5, ucc.PHI, 0.9):
        assert ucc.diagonal_ratio(x) == pytest.approx(2.0 * ucc.f_ratio(x, x), rel=1e-12)


def test_minimize_diagonal():
    dm = ucc.minimize_diagonal()
    assert abs(dm.x_star - ucc.PHI) <= 1e-6
    assert abs(dm.value - (1.0 + ucc.PHI)) <= 1e-9  # 1/phi = 1 + phi
    assert dm.grid_points == 4096
    assert dm.refine_tol == 1e-12


def test_minimize_diagonal_rejects_tiny_grid():
    with pytest.raises(ValueError):
        ucc.minimize_diagonal(grid_points=3)


def test_corollary_margin_values():
    m = ucc.corollary_margin(ucc.PHI, ucc.PHI)
    assert abs(m) <= 1e-12
    assert ucc.corollary_margin(0.3, 0.0) == 0.0
    assert ucc.corollary_margin(0.0, 0.9) == 0.0
    half = ucc.corollary_margin(0.5, 0.5)
    assert half == pytest.approx(H_QUARTER - ucc.HALF_INV_PHI, abs=1e-15)
    assert half == pytest.approx(0.002261, abs=1e-6)


def test_corollary_grid_check():
    gc = ucc.corollary_grid_check(1001)
    assert gc.min_margin >= -1e-12
    res = 1.0 / 1000
    assert abs(gc.argmin[0] - ucc.PHI) <= res + 1e-12
    assert abs(gc.argmin[1] - ucc.PHI) <= res + 1e-12
    assert gc.argmin_margin > 0.0
    assert gc.grid_points == 1001


def test_grid_margins_matrices():
    # the grid sweep's cells are corollary_margin at the grid points
    grid = np.linspace(0.0, 1.0, 101)
    margins = np.concatenate([m for _, m in scalars._margin_blocks(grid)])
    assert margins.shape == (101, 101)
    i = j = 50  # grid[50] = 0.5
    assert margins[i, j] == pytest.approx(ucc.corollary_margin(0.5, 0.5), abs=1e-15)
    assert margins[0, 17] == margins[17, 0] == 0.0  # the x = 0 and y = 0 edges


def test_stationarity_sign_change_at_minimizer():
    # the partial derivative of f along either axis flips sign across phi,
    # observed through S(x) = G(x y)(g(x)+g(y)) - g(x y) G(x) at y = phi
    def partial_sign(x, y):
        den = g_of(x) + g_of(y)
        return big_g_of(x * y) * den - g_of(x * y) * big_g_of(x)

    d = 1e-3
    assert partial_sign(ucc.PHI - d, ucc.PHI) < 0
    assert partial_sign(ucc.PHI + d, ucc.PHI) > 0
    # same along the y axis by symmetry of the formula
    assert partial_sign(ucc.PHI - d, ucc.PHI) == pytest.approx(
        partial_sign(ucc.PHI - d, ucc.PHI), abs=0)


# interval layer

def test_interval_basics():
    iv = Interval(0.25, 0.5)
    assert iv.contains(0.3)
    assert not iv.contains(0.6)
    assert Interval.point(0.7).width == 0.0
    with pytest.raises(ValueError):
        Interval(0.5, 0.25)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)


def test_interval_arithmetic_outward():
    a = Interval(1.0, 2.0)
    b = Interval(3.0, 4.0)
    s = a + b
    assert s.lo <= 4.0 and s.hi >= 6.0
    p = a * b
    assert p.lo <= 3.0 and p.hi >= 8.0
    q = b / a
    assert q.lo <= 1.5 and q.hi >= 4.0
    third = Interval.point(1.0) / Interval.point(3.0)
    assert third.lo < 1 / 3 < third.hi or third.lo <= 1 / 3 <= third.hi


def test_interval_division_requires_sign_definite_divisor():
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)


box_coords = st.tuples(interior, interior, interior, interior)


@given(box_coords, st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_interval_soundness_random_boxes(coords, seed):
    # production enclosures never exclude true point values
    x0, x1, y0, y1 = coords
    x = Interval(min(x0, x1), max(x0, x1))
    y = Interval(min(y0, y1), max(y0, y1))
    rng = ucc.SplitMix64(seed)
    pts = [(x.lo + rng.random() * x.width, y.lo + rng.random() * y.width)
           for _ in range(20)]
    enc = f_mean_value(x, y)
    assert enc is not None
    for px, py in pts:
        assert enc.lo <= ucc.f_ratio(px, py) <= enc.hi


@given(interior, interior)
@settings(max_examples=300)
def test_point_enclosure_contains_point(x, y):
    enc = f_point_enclosure(x, y)
    v = ucc.f_ratio(x, y)
    assert enc.lo <= v <= enc.hi
    # widest near the corners, where the denominator entropy is ~1e-5
    assert enc.width < 1e-6


def test_gradient_enclosure_sign_at_offsets():
    # df/dx < 0 left of the minimizer, > 0 right of it (y pinned at phi);
    # thin boxes so the enclosure resolves the sign
    w = 1e-4
    left = f_gradient_enclosure(Interval(ucc.PHI - 0.05 - w, ucc.PHI - 0.05),
                                Interval.point(ucc.PHI))
    right = f_gradient_enclosure(Interval(ucc.PHI + 0.05, ucc.PHI + 0.05 + w),
                                 Interval.point(ucc.PHI))
    assert left is not None and right is not None
    assert left[0].hi < 0.0
    assert right[0].lo > 0.0


def test_transcendental_slack_is_small_but_positive():
    assert 0.0 < TRANSCENDENTAL_SLACK < 1e-10


def test_transcendental_slack_covers_g_and_big_g():
    # g, G, log2 and log2 e are the only transcendental values inside the
    # enclosures and the certifier's edge bounds, so the slack is sound if it
    # covers their error against a 50-digit reference.  g and G are sampled
    # at every argument they can meet, from just above 2^-54 (the smallest
    # eta) to 1 - 2^-53 (the largest float below 1), crowding toward both
    # ends, where they are steepest; log2 on (0, 1/2] gives the corner's L.
    mpmath = pytest.importorskip("mpmath")
    floor = math.nextafter(2.0 ** -54, 1.0)
    tails = [float(t) for t in np.logspace(math.log10(floor), math.log10(0.5), 3000)]
    tails += [floor, 2.0 ** -53, 0.5]
    xs = sorted({t for t in tails} | {1.0 - t for t in tails if 1.0 - t < 1.0})
    assert xs[0] == floor and xs[-1] == 1.0 - 2.0 ** -53
    with mpmath.workdps(50):
        for x in xs:
            mx = mpmath.mpf(x)
            ref_big_g = mpmath.log(1 - mx, 2) / mx
            ref_g = -mpmath.log(mx, 2) - (1 - mx) * ref_big_g
            assert abs(g_of(x) - ref_g) <= TRANSCENDENTAL_SLACK, x
            assert abs(big_g_of(x) - ref_big_g) <= TRANSCENDENTAL_SLACK, x
        for x in [float(t) for t in np.logspace(-300, math.log10(0.5), 2000)] + [0.5]:
            assert abs(math.log2(x) - mpmath.log(x, 2)) <= TRANSCENDENTAL_SLACK, x
        assert LOG2E.lo < 1 / mpmath.log(2) < LOG2E.hi
        assert LOG2E.width <= 3 * TRANSCENDENTAL_SLACK


def test_transcendental_slack_covers_log2_and_binary_entropy():
    # the entropy verdicts widen math.log2 of pair counts, at most 2^48,
    # and binary_entropy of their ratios by the same slack
    mpmath = pytest.importorskip("mpmath")
    ints = {int(v) for v in np.logspace(0, 48 * math.log10(2), 2000)}
    ints |= {(1 << k) + d for k in range(2, 49) for d in (-1, 1)}
    ints |= {int(v) for v in np.random.default_rng(48).integers(1, 1 << 48, 2000)}
    tails = np.logspace(-15, math.log10(0.5), 2500)
    xs = sorted({float(t) for t in tails} | {1.0 - float(t) for t in tails})
    with mpmath.workdps(50):
        for m in sorted(ints):
            assert abs(math.log2(m) - mpmath.log(m, 2)) <= TRANSCENDENTAL_SLACK, m
        for x in xs:
            mx = mpmath.mpf(x)
            ref_h = -(mx * mpmath.log(mx, 2) + (1 - mx) * mpmath.log(1 - mx, 2))
            assert abs(math.log2(x) - mpmath.log(mx, 2)) <= TRANSCENDENTAL_SLACK, x
            assert abs(ucc.binary_entropy(x) - ref_h) <= TRANSCENDENTAL_SLACK, x
