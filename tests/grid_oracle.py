"""Full-matrix margin sweep: the slow path the row-block sweep replaced.

It builds every ``grid_points``-squared matrix at once and takes the
argmin with ``ndarray.argmin`` (first minimum in row-major order), so
agreement with :func:`ucc.grid_margins` and :func:`ucc.corollary_grid_check`
is evidence that the blocked sweep computes and folds the same cells.
"""

from __future__ import annotations

import numpy as np

from ucc import HALF_INV_PHI, GridCheck
from ucc.analytic.scalars import _entropy_grid


def grid_margins(grid_points: int):
    grid = np.linspace(0.0, 1.0, grid_points)
    hv = _entropy_grid(grid)
    prod = np.outer(grid, grid)
    hp = _entropy_grid(prod)
    x_h_y = np.outer(grid, hv)      # x_i * h(y_j)
    y_h_x = np.outer(hv, grid)      # h(x_i) * y_j
    margins = hp - HALF_INV_PHI * (x_h_y + y_h_x)
    denom = y_h_x + x_h_y
    f_values = np.ones_like(denom)
    np.divide(hp, denom, out=f_values, where=denom > 0.0)
    return grid, f_values, margins


def corollary_grid_check(grid_points: int) -> GridCheck:
    grid, _, margins = grid_margins(grid_points)
    min_margin = float(margins.min())
    interior = margins[1:-1, 1:-1]
    i, j = np.unravel_index(int(interior.argmin()), interior.shape)
    return GridCheck(
        min_margin=min_margin,
        argmin=(float(grid[i + 1]), float(grid[j + 1])),
        argmin_margin=float(interior[i, j]),
        grid_points=grid_points,
    )
