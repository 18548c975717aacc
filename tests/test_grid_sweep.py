"""The row-block margin sweep against the full-matrix sweep it replaced.

Every cell is computed with the same operations in the same order, so the
stacked blocks and the folded ``GridCheck`` must equal the one-shot matrix
exactly, at grid sizes on both sides of a block edge.
The sweep's memory must not grow with the grid.
"""

import tracemalloc

import numpy as np
import pytest

import ucc
from tests import grid_oracle as oracle
from ucc.analytic import scalars


def _blocks(grid_points):
    """The sweep's blocks on the uniform closed grid, as (start, shape)
    pairs, and their margins stacked into one matrix."""
    grid = np.linspace(0.0, 1.0, grid_points)
    starts, parts = zip(*scalars._margin_blocks(grid))
    return [(s, m.shape) for s, m in zip(starts, parts)], np.concatenate(parts)


def test_block_edges_straddled():
    # one block up to 90 points; 91 needs a second block of one row
    rows = [scalars._BLOCK_CELLS // n for n in (90, 91, 1001)]
    assert rows == [91, 90, 8]
    for n, layout in ((90, [(0, (90, 90))]),
                      (91, [(0, (90, 91)), (90, (1, 91))])):
        blocks, margins = _blocks(n)
        assert blocks == layout
        # below the grid check's floor of 100 points
        np.testing.assert_array_equal(margins, oracle.grid_margins(n)[1])


# 256 points fill eight blocks of 32 rows exactly; 255 leave the last block
# one row short, and 257 need a ninth block
@pytest.mark.parametrize(
    "grid_points", [100, 101, 255, 256, 257, 1000, 1001, 2001])
def test_grid_check_equals_full_matrix(grid_points):
    fast = ucc.corollary_grid_check(grid_points)
    slow = oracle.corollary_grid_check(grid_points)
    assert fast == slow
    assert repr(fast) == repr(slow)  # signed zeros too


@pytest.mark.parametrize("block_cells", [1, 150, 5000])
def test_grid_check_equals_full_matrix_in_small_blocks(monkeypatch, block_cells):
    # one row per block, then blocks that end on and next to the last row
    monkeypatch.setattr(scalars, "_BLOCK_CELLS", block_cells)
    for grid_points in (100, 101, 149, 150, 151):
        assert (repr(ucc.corollary_grid_check(grid_points))
                == repr(oracle.corollary_grid_check(grid_points)))


def test_grid_margins_equal_full_matrix():
    _, margins = _blocks(101)
    np.testing.assert_array_equal(margins, oracle.grid_margins(101)[1])


def test_grid_margin_rows_streams_in_blocks(monkeypatch):
    monkeypatch.setattr(scalars, "_BLOCK_CELLS", 3 * 37)
    blocks, margins = _blocks(37)
    assert blocks == [(3 * k, (3, 37)) for k in range(12)] + [(36, (1, 37))]
    np.testing.assert_array_equal(margins, oracle.grid_margins(37)[1])


def test_interior_tie_across_blocks_keeps_first_in_row_major_order(monkeypatch):
    n = 100
    margins = np.ones((n, n))
    margins[0, 5] = margins[n - 1, 5] = -2.0  # edge rows: min_margin only
    margins[10, 50] = margins[60, 20] = -1.0  # tied, in different blocks

    def blocks(grid):
        for start in range(0, n, 7):
            yield start, margins[start:start + 7]

    monkeypatch.setattr(scalars, "_margin_blocks", blocks)
    gc = ucc.corollary_grid_check(n)
    grid = np.linspace(0.0, 1.0, n)
    assert gc.argmin == (float(grid[10]), float(grid[50]))
    assert gc.argmin_margin == -1.0
    assert gc.min_margin == -2.0


def test_grid_check_memory_does_not_grow_with_the_grid():
    # the full-matrix sweep holds about 500 MB at 3001 points, and 2^16-cell
    # blocks about 5.4 MiB; 2^13-cell blocks stay near 0.6 MiB
    tracemalloc.start()
    try:
        gc = ucc.corollary_grid_check(3001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert gc.grid_points == 3001
    assert gc.min_margin >= -1e-12
