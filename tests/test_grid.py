import itertools

import numpy as np
import pytest

from brinkman2d import build_grid
from brinkman2d.grid import boundary_velocity_mask


def enumerate_counts(nx, ny):
    """Count DOFs one face/cell at a time, independently of the formulas."""
    n_u = sum(1 for j in range(ny) for i in range(nx + 1))
    n_v = sum(1 for j in range(ny + 1) for i in range(nx))
    n_p = sum(1 for j in range(ny) for i in range(nx))
    return n_u, n_v, n_p


def test_paper_system_size():
    grid = build_grid(20, 20)
    assert grid.n_total == 1240


def test_smallest_grid_counts():
    grid = build_grid(1, 1)
    assert (grid.n_u, grid.n_v, grid.n_p, grid.n_total) == (2, 2, 1, 5)


def test_counts_match_enumeration():
    grid = build_grid(2, 3)
    assert enumerate_counts(2, 3) == (9, 8, 6)
    assert (grid.n_u, grid.n_v, grid.n_p, grid.n_total) == (9, 8, 6, 23)


@pytest.mark.parametrize("nx,ny", list(itertools.product(range(1, 7), repeat=2)))
def test_count_formula(nx, ny):
    grid = build_grid(nx, ny)
    n_u, n_v, n_p = enumerate_counts(nx, ny)
    assert (grid.n_u, grid.n_v, grid.n_p) == (n_u, n_v, n_p)
    assert grid.n_total == 3 * nx * ny + nx + ny


def test_block_ordering_on_unit_grid():
    grid = build_grid(1, 1)
    assert grid.u_index(0, 0) == 0
    assert grid.p_index(0, 0) == 4


def test_round_trip_is_bijective():
    """Each (i, j) lands on its own global slot, the slots cover
    0..n_total-1, and the slot's coordinates give back (i, j)."""
    grid = build_grid(3, 2)
    xu, yu = grid.u_coords()
    xv, yv = grid.v_coords()
    xp, yp = grid.p_coords()
    seen = []
    for j in range(grid.ny):
        for i in range(grid.nx + 1):
            g = grid.u_index(i, j)
            assert (round(xu[g] / grid.dx), round(yu[g] / grid.dy - 0.5)) == (i, j)
            seen.append(g)
    for j in range(grid.ny + 1):
        for i in range(grid.nx):
            g = grid.v_index(i, j)
            k = g - grid.n_u
            assert (round(xv[k] / grid.dx - 0.5), round(yv[k] / grid.dy)) == (i, j)
            seen.append(g)
    for j in range(grid.ny):
        for i in range(grid.nx):
            g = grid.p_index(i, j)
            k = g - grid.n_velocity
            assert (round(xp[k] / grid.dx - 0.5), round(yp[k] / grid.dy - 0.5)) == (i, j)
            seen.append(g)
    assert sorted(seen) == list(range(grid.n_total))


def test_row_major_j_outer_ordering():
    """u over (j outer, i), then v, then p, concatenated, is 0..n_total-1."""
    for nx, ny in [(1, 1), (4, 3), (2, 5)]:
        grid = build_grid(nx, ny)
        order = (
            [grid.u_index(i, j) for j in range(ny) for i in range(nx + 1)]
            + [grid.v_index(i, j) for j in range(ny + 1) for i in range(nx)]
            + [grid.p_index(i, j) for j in range(ny) for i in range(nx)]
        )
        np.testing.assert_array_equal(order, np.arange(grid.n_total))


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (5, 5), (20, 20)])
def test_boundary_velocity_classification(nx, ny):
    grid = build_grid(nx, ny)
    mask = boundary_velocity_mask(grid)
    assert mask.shape == (grid.n_velocity,)
    for j in range(ny):
        for i in range(nx + 1):
            assert mask[grid.u_index(i, j)] == (i in (0, nx))
    for j in range(ny + 1):
        for i in range(nx):
            assert mask[grid.v_index(i, j)] == (j in (0, ny))
    assert mask.sum() == 2 * nx + 2 * ny


def test_spacing_and_coords():
    grid = build_grid(4, 2)
    assert grid.dx == 0.25
    assert grid.dy == 0.5
    xu, yu = grid.u_coords()
    assert xu[0] == 0.0 and yu[0] == 0.25
    assert xu[grid.nx] == 1.0  # the unit square
    xp, yp = grid.p_coords()
    assert xp[0] == 0.125 and yp[0] == 0.25


@pytest.mark.parametrize("nx,ny", [(0, 1), (1, 0)])
def test_invalid_dimensions_rejected(nx, ny):
    with pytest.raises(ValueError):
        build_grid(nx, ny)
