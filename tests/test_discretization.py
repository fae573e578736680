import numpy as np
import pytest
import scipy.sparse as sp

from brinkman2d import (
    BoundaryData,
    ForcingField,
    InvalidFieldError,
    NormalizedPermeability,
    assemble_divergence,
    assemble_drag,
    assemble_gradient,
    assemble_laplacian,
    assemble_monolithic,
    build_grid,
    direct_solve,
    generate_contrast_field,
    laplacian_boundary_term,
    normalize,
    uniform_kstar,
)
from brinkman2d.discretization import COMPATIBILITY_TOL, boundary_values
from brinkman2d.grid import boundary_velocity_mask
from brinkman2d.media import PermeabilityField


def u_face_values(grid, fn):
    x, y = grid.u_coords()
    return fn(x, y)


def velocity_vector(grid, fu, fv):
    xu, yu = grid.u_coords()
    xv, yv = grid.v_coords()
    return np.concatenate([fu(xu, yu), fv(xv, yv)])


class TestLaplacian:
    def test_annihilates_constants_and_linears_on_interior_rows(self):
        grid = build_grid(10, 5)
        lap = assemble_laplacian(grid)
        row = grid.u_index(5, 2)  # interior in x and y
        for fn in (lambda x, y: np.ones_like(x), lambda x, y: x):
            vec = np.concatenate([u_face_values(grid, fn), np.zeros(grid.n_v)])
            assert abs((lap @ vec)[row]) <= 1e-12

    def test_second_difference_of_quadratic(self):
        # (u(x+h) - 2u(x) + u(x-h)) / h^2 with u = x^2 gives exactly 2
        grid = build_grid(10, 5)  # dx = 0.1
        lap = assemble_laplacian(grid)
        vec = np.concatenate([u_face_values(grid, lambda x, y: x**2), np.zeros(grid.n_v)])
        row = grid.u_index(5, 2)
        assert (lap @ vec)[row] == pytest.approx(2.0, abs=1e-10)

    def test_boundary_normal_rows_empty(self):
        grid = build_grid(4, 3)
        lap = assemble_laplacian(grid)
        for j in range(grid.ny):
            for i in (0, grid.nx):
                row = grid.u_index(i, j)
                assert lap.indptr[row] == lap.indptr[row + 1]
        for i in range(grid.nx):
            for j in (0, grid.ny):
                row = grid.v_index(i, j)
                assert lap.indptr[row] == lap.indptr[row + 1]

    def test_wall_adjacent_diagonal_uses_ghost_reflection(self):
        grid = build_grid(5, 4)
        lap = assemble_laplacian(grid)
        idx2, idy2 = 1.0 / grid.dx**2, 1.0 / grid.dy**2
        wall_row = grid.u_index(2, 0)
        interior_row = grid.u_index(2, 1)
        assert lap[wall_row, wall_row] == pytest.approx(-2 * idx2 - 3 * idy2)
        assert lap[interior_row, interior_row] == pytest.approx(-2 * idx2 - 2 * idy2)

    def test_single_row_grid_reflects_both_walls(self):
        grid = build_grid(4, 1)
        lap = assemble_laplacian(grid)
        row = grid.u_index(2, 0)
        assert lap[row, row] == pytest.approx(-2 / grid.dx**2 - 4 / grid.dy**2)

    def test_boundary_term_for_uniform_data(self):
        grid = build_grid(5, 4)
        vec = laplacian_boundary_term(grid, BoundaryData.uniform(grid, 1.0, 0.0))
        idy2 = 1.0 / grid.dy**2
        assert vec[grid.u_index(2, 0)] == pytest.approx(2 * idy2)
        assert vec[grid.u_index(2, grid.ny - 1)] == pytest.approx(2 * idy2)
        assert vec[grid.u_index(2, 1)] == 0.0
        assert np.all(vec[grid.n_u:] == 0.0)  # gy = 0: no v-wall data

    def test_boundary_term_lid_driven(self):
        grid = build_grid(5, 4)
        vec = laplacian_boundary_term(grid, BoundaryData.lid_driven(grid, 2.0))
        idy2 = 1.0 / grid.dy**2
        top = [grid.u_index(i, grid.ny - 1) for i in range(1, grid.nx)]
        assert np.allclose(vec[top], 2 * idy2 * 2.0)
        mask = np.zeros(grid.n_velocity, dtype=bool)
        mask[top] = True
        assert np.all(vec[~mask] == 0.0)


class TestGradientDivergence:
    def test_gradient_of_constant_pressure_vanishes(self):
        grid = build_grid(4, 4)
        grad = assemble_gradient(grid)
        assert np.all(grad @ np.ones(grid.n_p) == 0.0)

    def test_gradient_entries(self):
        grid = build_grid(4, 4)
        grad = assemble_gradient(grid)
        row = grid.u_index(2, 1)
        cells = grid.n_velocity
        assert grad[row, grid.p_index(2, 1) - cells] == pytest.approx(1 / grid.dx)
        assert grad[row, grid.p_index(1, 1) - cells] == pytest.approx(-1 / grid.dx)
        assert grad.indptr[grid.u_index(0, 1)] == grad.indptr[grid.u_index(0, 1) + 1]

    def test_divergence_of_uniform_flow_vanishes(self):
        grid = build_grid(5, 3)
        div = assemble_divergence(grid)
        vec = velocity_vector(grid, lambda x, y: np.ones_like(x), lambda x, y: np.zeros_like(x))
        assert np.all(div @ vec == 0.0)

    def test_divergence_row_arithmetic(self):
        # u = x gives (u_east - u_west)/dx = 1 in every cell
        grid = build_grid(4, 4)
        div = assemble_divergence(grid)
        vec = velocity_vector(grid, lambda x, y: x, lambda x, y: np.zeros_like(x))
        np.testing.assert_allclose(div @ vec, 1.0, rtol=1e-12)

    def test_divergence_is_negative_gradient_transpose_on_interior(self):
        grid = build_grid(3, 3)
        grad = assemble_gradient(grid).toarray()
        div = assemble_divergence(grid).toarray()
        interior = ~boundary_velocity_mask(grid)
        assert np.array_equal(grad[interior, :], -div[:, interior].T)


class TestDrag:
    def test_uniform_unit_field_gives_identity(self):
        grid = build_grid(4, 3)
        drag = assemble_drag(grid, uniform_kstar(grid))
        assert np.array_equal(drag.diagonal(), np.ones(grid.n_velocity))

    def test_harmonic_mean_between_contrasting_cells(self):
        # harmonic mean 2ab/(a+b) of 1 and 1e-5: coefficient (a+b)/(2ab) = 50000.5
        grid = build_grid(2, 1)
        kstar = NormalizedPermeability(np.array([1.0, 1e-5]), np.array([1.0, 1.0]), 1.0)
        coeff = assemble_drag(grid, kstar).diagonal()
        assert coeff[grid.u_index(1, 0)] == pytest.approx(5.00005e4, rel=1e-12)

    def test_boundary_face_uses_single_cell(self):
        grid = build_grid(1, 1)
        kstar = NormalizedPermeability(np.array([0.5]), np.array([0.5]), 1.0)
        coeff = assemble_drag(grid, kstar).diagonal()
        assert coeff[grid.u_index(0, 0)] == 2.0
        assert coeff[grid.v_index(0, 1)] == 2.0

    def test_zero_permeability_rejected(self):
        grid = build_grid(2, 1)
        bad = NormalizedPermeability(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(InvalidFieldError):
            assemble_drag(grid, bad)


def uniform_flow_exact_vector(grid, pinned):
    x = np.zeros(grid.n_total)
    x[: grid.n_u] = 1.0
    xp, _ = grid.p_coords()
    x[grid.n_velocity:] = (xp[0] - xp) if pinned else -xp
    return x


class TestMonolithic:
    def test_replicated_system_size(self):
        grid = build_grid(20, 20)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0)
        )
        assert system.matrix.shape == (1240, 1240)

    def test_matrix_not_symmetric(self):
        grid = build_grid(4, 4)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0)
        )
        assert abs(system.matrix - system.matrix.T).max() > 0.0

    @pytest.mark.parametrize("anna", [1e-3, 1.0, 1e3])
    def test_uniform_flow_is_exact_discrete_solution(self, anna):
        grid = build_grid(5, 4)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), anna, BoundaryData.uniform(grid, 1.0, 0.0)
        )
        residual = system.matrix @ uniform_flow_exact_vector(grid, pinned=False) - system.rhs
        scale = abs(system.matrix).sum(axis=1).max()
        assert np.abs(residual).max() <= 1e-15 * scale
        if anna == 1.0:
            assert np.abs(residual).max() <= 1e-12

    def test_constant_pressure_nullspace(self):
        for n in (3, 6):
            grid = build_grid(n, n)
            system = assemble_monolithic(
                grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0)
            )
            z = np.zeros(grid.n_total)
            z[grid.n_velocity:] = 1.0
            resid = np.abs(system.matrix @ z).max()
            assert resid <= 1e-14 * abs(system.matrix).sum(axis=1).max()
            assert resid == 0.0

    def test_assembly_linear_in_anna(self):
        grid = build_grid(3, 3)
        field = normalize(PermeabilityField(np.linspace(1, 2, 9), np.linspace(2, 3, 9)))
        bc = BoundaryData.uniform(grid, 1.0, 0.0)
        m0 = assemble_monolithic(grid, field, 0.0, bc).matrix.toarray()
        m1 = assemble_monolithic(grid, field, 1.0, bc).matrix.toarray()
        for anna in (0.3, 2.0):
            ma = assemble_monolithic(grid, field, anna, bc).matrix.toarray()
            assert np.array_equal(ma, m0 + anna * (m1 - m0))

    def test_zero_anna_without_drag_rejected(self):
        # no viscous and no drag term: the momentum block would be empty
        grid = build_grid(3, 3)
        with pytest.raises(ValueError, match="anna = 0 with include_drag=False"):
            assemble_monolithic(grid, uniform_kstar(grid), 0.0,
                                BoundaryData.uniform(grid, 1.0, 0.0), include_drag=False)

    def test_negative_anna_rejected(self):
        grid = build_grid(2, 2)
        with pytest.raises(ValueError):
            assemble_monolithic(
                grid, uniform_kstar(grid), -1.0, BoundaryData.uniform(grid, 1.0, 0.0)
            )

    def test_boundary_rows_are_identity_with_data(self):
        grid = build_grid(3, 3)
        bc = BoundaryData.uniform(grid, 2.0, -1.0)
        system = assemble_monolithic(grid, uniform_kstar(grid), 1.0, bc)
        mat = system.matrix
        for row, value in (
            (grid.u_index(0, 1), 2.0),
            (grid.u_index(grid.nx, 2), 2.0),
            (grid.v_index(1, 0), -1.0),
            (grid.v_index(2, grid.ny), -1.0),
        ):
            cols = mat.indices[mat.indptr[row]: mat.indptr[row + 1]]
            vals = mat.data[mat.indptr[row]: mat.indptr[row + 1]]
            assert list(cols) == [row]
            assert list(vals) == [1.0]
            assert system.rhs[row] == value

    def test_pinned_row_replaces_first_pressure_equation(self):
        grid = build_grid(3, 3)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0),
            pin_pressure=True,
        )
        row = grid.n_velocity
        mat = system.matrix
        cols = mat.indices[mat.indptr[row]: mat.indptr[row + 1]]
        assert list(cols) == [row]
        assert system.rhs[row] == 0.0

    def test_pinned_systems_factorize_up_to_20x20(self):
        for n in (8, 20):
            grid = build_grid(n, n)
            field = normalize(
                PermeabilityField(
                    np.linspace(1.0, 100.0, grid.n_p), np.linspace(5.0, 50.0, grid.n_p)
                )
            )
            system = assemble_monolithic(
                grid, field, 1.0, BoundaryData.uniform(grid, 1.0, 0.0), pin_pressure=True
            )
            x = direct_solve(system.matrix, system.rhs)
            relres = np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs)
            assert relres <= 1e-10

    def test_incompatible_boundary_data_warns_when_unpinned(self):
        grid = build_grid(3, 3)
        nx, ny = grid.nx, grid.ny
        leaky = BoundaryData(
            u_left=np.zeros(ny), u_right=np.ones(ny),
            v_bottom=np.zeros(nx), v_top=np.zeros(nx),
            u_bottom=np.zeros(nx + 1), u_top=np.zeros(nx + 1),
            v_left=np.zeros(ny + 1), v_right=np.zeros(ny + 1),
        )
        unpinned = assemble_monolithic(grid, uniform_kstar(grid), 1.0, leaky)
        assert unpinned.warnings
        pinned = assemble_monolithic(grid, uniform_kstar(grid), 1.0, leaky, pin_pressure=True)
        assert not pinned.warnings
        balanced = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0)
        )
        assert not balanced.warnings

    def test_forcing_enters_interior_rhs(self):
        grid = build_grid(3, 3)
        rng = np.random.default_rng(4)
        forcing = ForcingField(rng.standard_normal(grid.n_u), rng.standard_normal(grid.n_v))
        bc = BoundaryData.uniform(grid, 0.0, 0.0)
        system = assemble_monolithic(grid, uniform_kstar(grid), 1.0, bc, forcing=forcing)
        interior = ~boundary_velocity_mask(grid)
        full_forcing = np.concatenate([forcing.f_u, forcing.f_v])
        np.testing.assert_array_equal(system.rhs[: grid.n_velocity][interior],
                                      full_forcing[interior])
        assert np.all(system.rhs[grid.n_velocity:] == 0.0)

    def test_drag_block_can_be_excluded(self):
        grid = build_grid(3, 3)
        bc = BoundaryData.uniform(grid, 1.0, 0.0)
        with_drag = assemble_monolithic(grid, uniform_kstar(grid), 1.0, bc).matrix
        without = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, bc, include_drag=False
        ).matrix
        diff = (with_drag - without).toarray()
        interior = np.flatnonzero(~boundary_velocity_mask(grid))
        expected = np.zeros_like(diff)
        expected[interior, interior] = 1.0
        assert np.array_equal(diff, expected)


def coo_reference_assembly(grid, kstar, anna, bc, forcing=None, pin_pressure=False,
                           include_drag=True):
    """Triplet-level assembly of the monolithic system: the blocks' COO
    triplets concatenated, boundary rows filtered out and replaced by
    identity rows, then the pin row.  Returns ``(matrix, rhs, warnings)``."""
    nv, n = grid.n_velocity, grid.n_total
    if forcing is None:
        forcing = ForcingField.zero(grid)
    lap = assemble_laplacian(grid)
    lap_bc = laplacian_boundary_term(grid, bc)
    grad = assemble_gradient(grid)
    div = assemble_divergence(grid)

    momentum = (-anna) * lap
    if include_drag:
        momentum = momentum + assemble_drag(grid, kstar)

    mom = momentum.tocoo()
    grd = grad.tocoo()
    dvg = div.tocoo()
    rows = np.concatenate([mom.row, grd.row, dvg.row + nv])
    cols = np.concatenate([mom.col, grd.col + nv, dvg.col])
    vals = np.concatenate([mom.data, grd.data, dvg.data])

    bmask = np.zeros(n, dtype=bool)
    bmask[:nv] = boundary_velocity_mask(grid)
    keep = ~bmask[rows]
    rows, cols, vals = rows[keep], cols[keep], vals[keep]

    brows = np.flatnonzero(bmask)
    rows = np.concatenate([rows, brows])
    cols = np.concatenate([cols, brows])
    vals = np.concatenate([vals, np.ones(brows.size)])

    rhs = np.zeros(n)
    rhs[:nv] = np.concatenate([forcing.f_u, forcing.f_v]) + anna * lap_bc
    g = boundary_values(grid, bc)
    rhs[brows] = g[brows]

    if pin_pressure:
        pin_row = nv  # first pressure DOF
        keep = rows != pin_row
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        rows = np.append(rows, pin_row)
        cols = np.append(cols, pin_row)
        vals = np.append(vals, 1.0)
        rhs[pin_row] = 0.0

    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()

    warnings = []
    flux = bc.net_flux(grid)
    scale = max(1.0, float(np.abs(g).max()))
    if not pin_pressure and abs(flux) > COMPATIBILITY_TOL * scale:
        warnings.append(
            f"boundary data has net flux {flux:.3e}; the unpinned system is "
            "singular and solvable only for compatible right-hand sides"
        )
    return matrix, rhs, warnings


REFERENCE_GRIDS = ((1, 1), (1, 3), (3, 1), (2, 2), (4, 3), (8, 8), (13, 7), (20, 20))
REFERENCE_ANNAS = (0.0, 1e-5, 1e-3, 1.0, 1e3, 1e5)


def reference_fields(grid):
    """Uniform K* plus every generated pattern the grid can realise."""
    fields = [uniform_kstar(grid)]
    for pattern in ("layered", "lognormal", "checkerboard"):
        try:
            fields.append(normalize(generate_contrast_field(grid, 1e5, 1e3, pattern, 3)))
        except ValueError:  # too few cells for the contrast in one direction
            pass
    return fields


def reference_data(grid):
    """Boundary data and forcing: uniform, lid-driven, and uniform with forcing."""
    rng = np.random.default_rng(grid.n_total)
    forcing = ForcingField(rng.standard_normal(grid.n_u), rng.standard_normal(grid.n_v))
    uniform = BoundaryData.uniform(grid, 1.0, -0.5)
    return (uniform, None), (BoundaryData.lid_driven(grid), None), (uniform, forcing)


@pytest.mark.parametrize("nx, ny", REFERENCE_GRIDS)
def test_block_assembly_matches_coo_reference_bit_for_bit(nx, ny):
    grid = build_grid(nx, ny)
    data = reference_data(grid)
    cases = 0
    for kstar in reference_fields(grid):
        for anna in REFERENCE_ANNAS:
            for include_drag in (True, False):
                if anna == 0.0 and not include_drag:
                    continue  # rejected, see test_zero_anna_without_drag_rejected
                for pin in (False, True):
                    bc, forcing = data[cases % len(data)]  # each data set in turn
                    system = assemble_monolithic(grid, kstar, anna, bc, forcing=forcing,
                                                 pin_pressure=pin, include_drag=include_drag)
                    matrix, rhs, warnings = coo_reference_assembly(
                        grid, kstar, anna, bc, forcing, pin, include_drag)
                    got = system.matrix
                    for name in ("indptr", "indices", "data"):
                        assert getattr(got, name).tobytes() == getattr(matrix, name).tobytes(), name
                    assert system.rhs.tobytes() == rhs.tobytes()
                    assert system.warnings == warnings
                    cases += 1
    assert cases >= 22

