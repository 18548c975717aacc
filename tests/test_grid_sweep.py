"""The row-block margin sweep against the full-matrix sweep it replaced.

Every cell is computed with the same operations in the same order, so the
stacked blocks, the folded ``GridCheck`` and the CSV dump must equal the
one-shot matrices exactly, at grid sizes on both sides of a block edge.
The sweep's memory must not grow with the grid.
"""

import io
import tracemalloc

import numpy as np
import pytest

import ucc
from tests import grid_oracle as oracle
from ucc.analytic import scalars
from ucc.analytic.scalars import grid_margin_rows


def test_block_edges_straddled():
    # one block up to 90 points; 91 needs a second block of one row
    rows = [scalars._BLOCK_CELLS // n for n in (90, 91, 1001)]
    assert rows == [91, 90, 8]
    shapes = [[m.shape for _, m in grid_margin_rows(n)[1]] for n in (90, 91)]
    assert shapes == [[(90, 90)], [(90, 91), (1, 91)]]
    for n in (90, 91):  # below the grid check's floor of 100 points
        for a, b in zip(ucc.grid_margins(n), oracle.grid_margins(n)):
            np.testing.assert_array_equal(a, b)


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
    fast = ucc.grid_margins(101)
    slow = oracle.grid_margins(101)
    for a, b in zip(fast, slow):
        np.testing.assert_array_equal(a, b)


def test_grid_margin_rows_streams_in_blocks(monkeypatch):
    monkeypatch.setattr(scalars, "_BLOCK_CELLS", 3 * 37)
    grid, blocks = grid_margin_rows(37)
    shapes = [m.shape for _, m in blocks]
    assert shapes == [(3, 37)] * 12 + [(1, 37)]
    np.testing.assert_array_equal(grid, oracle.grid_margins(37)[0])
    with pytest.raises(ValueError, match="at least 2"):
        grid_margin_rows(1)


def test_interior_tie_across_blocks_keeps_first_in_row_major_order(monkeypatch):
    n = 100
    margins = np.ones((n, n))
    margins[0, 5] = margins[n - 1, 5] = -2.0  # edge rows: min_margin only
    margins[10, 50] = margins[60, 20] = -1.0  # tied, in different blocks

    def blocks(grid, with_f):
        for start in range(0, n, 7):
            yield start, margins[start:start + 7], None

    monkeypatch.setattr(scalars, "_margin_blocks", blocks)
    gc = ucc.corollary_grid_check(n)
    grid = np.linspace(0.0, 1.0, n)
    assert gc.argmin == (float(grid[10]), float(grid[50]))
    assert gc.argmin_margin == -1.0
    assert gc.min_margin == -2.0


def test_csv_dump_equals_full_matrix_rows(monkeypatch):
    # 101 points, the first grid above the floor, in blocks of 4 rows
    monkeypatch.setattr(scalars, "_BLOCK_CELLS", 4 * 101)
    grid, f_values, margins = oracle.grid_margins(101)
    expected = ["x,y,f,margin\n"]
    for i, x in enumerate(grid.tolist()):
        for j, y in enumerate(grid.tolist()):
            expected.append(f"{x!r},{y!r},{float(f_values[i, j])!r},"
                            f"{float(margins[i, j])!r}\n")
    buf = io.StringIO()
    scalars.write_grid_csv(buf, 101)
    assert buf.getvalue() == "".join(expected)


def test_csv_dump_refuses_a_grid_below_the_floor(tmp_path):
    dest = tmp_path / "coarse.csv"
    for out in (io.StringIO(), str(dest)):
        with pytest.raises(ValueError, match="grid_points must be at least 100"):
            scalars.write_grid_csv(out, 99)
    assert not dest.exists()


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
