import dataclasses
import hashlib
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import brinkman2d.discretization
from brinkman2d import (
    BoundaryData,
    InvalidFieldError,
    PermeabilityField,
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
from brinkman2d._util import NumericOverflowError
from brinkman2d.discretization import drag_coefficients
from brinkman2d.grid import boundary_velocity_mask


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
        vec = laplacian_boundary_term(grid, BoundaryData(1.0, 0.0))
        idy2 = 1.0 / grid.dy**2
        assert vec[grid.u_index(2, 0)] == pytest.approx(2 * idy2)
        assert vec[grid.u_index(2, grid.ny - 1)] == pytest.approx(2 * idy2)
        assert vec[grid.u_index(2, 1)] == 0.0
        assert np.all(vec[grid.n_u:] == 0.0)  # gy = 0: no v-wall data

    def test_boundary_term_lid_driven(self):
        grid = build_grid(5, 4)
        vec = laplacian_boundary_term(grid, BoundaryData(0.0, 0.0, lid=2.0))
        idy2 = 1.0 / grid.dy**2
        top = [grid.u_index(i, grid.ny - 1) for i in range(1, grid.nx)]
        assert np.allclose(vec[top], 2 * idy2 * 2.0)
        mask = np.zeros(grid.n_velocity, dtype=bool)
        mask[top] = True
        assert np.all(vec[~mask] == 0.0)


class TestBoundaryData:
    def test_three_numbers(self):
        assert [f.name for f in dataclasses.fields(BoundaryData)] == ["gx", "gy", "lid"]
        assert BoundaryData(1, -0.5) == BoundaryData(1.0, -0.5, lid=0.0)

    @pytest.mark.parametrize("name", ["gx", "gy", "lid"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, name, value):
        values = {"gx": 1.0, "gy": 0.0, "lid": 0.0, name: value}
        with pytest.raises(ValueError, match=f"boundary data {name} must be finite"):
            BoundaryData(**values)


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


def operator_digest(matrix):
    """SHA-256 of a CSR matrix's indptr, indices and data, index dtype normalised."""
    h = hashlib.sha256()
    for part in (matrix.indptr.astype("<i8"), matrix.indices.astype("<i8"),
                 matrix.data.astype("<f8")):
        h.update(part.tobytes())
    return h.hexdigest()


#: Digests of (L, G, D) from the per-lattice assembly with G written out
#: term by term, which the single five-point loop and G = -D^T reproduce
#: bit for bit.
OPERATOR_DIGESTS = {
    (1, 1): ("2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb",
             "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb",
             "d3dd5ddb564044f78d4ab5d25176f5d6d485c236611fc41b57062c45ce120981"),
    (1, 3): ("c48fb3077d371d2ff459307d2600f6e99359f7ea1800f95f29ddf7b89c50b409",
             "ffcc34453fcf824cb02e74b73ad1457314a176ba095841169b620577f2c64bb8",
             "7f3c955154c6c51b292e54bad66a426fa7bb60c466970752ba89ef6420f40089"),
    (3, 1): ("552cc8a202a32e9e4251c54c6edd53d60b3d1a77e7892a83446eceb46c66c975",
             "d8e75167818dd87c0a28e7cfba5ef60017c7c3fcbf74ce873cf7bf4b62a1cfe1",
             "0281af06aa0f08bc5d575f4b686ea02f6aa9a718c53447c383f3c63473dbced4"),
    (4, 3): ("d96933234fae16adb6d256eee15ac0cb3a3af966e704b39b1472f38c145751b9",
             "4ed6a84a809812173096fa699e37bbda5679cb3296bc6c3274bbbf414d5faabe",
             "aaaf740bde72f314cbb706f6e5a9afe46c5ee9646c9d6e6ed365193b00d513e7"),
    (13, 7): ("00bd54c01d89196da30a317760bfb52990ec1c6f03c186d7173b2862b3077397",
              "95a26c55eed7c45ea949d1ba334eca3f120cc39e55787f507dd86aa1d1311b24",
              "bcc15ecba92ed532cdda2520df5af1f927fa5bb84e27dd9ff2d6f60192da2e56"),
    (20, 20): ("5c50dcfbd50669e98ab784e9738e94c517b67f05984ded563a8924ac46cccab2",
               "4f3f690d7d1a3bb4baabc27fdd9dc8a7e60fbf0af2aa6265d23a79cccf166b82",
               "150dcf6e614444ab28058dfc0d135f2fecfd971b2fb6037357d5e43333dd912f"),
}


@pytest.mark.parametrize("nx, ny", OPERATOR_DIGESTS)
def test_operator_bytes_pinned(nx, ny):
    grid = build_grid(nx, ny)
    got = tuple(operator_digest(assemble(grid)) for assemble in
                (assemble_laplacian, assemble_gradient, assemble_divergence))
    assert got == OPERATOR_DIGESTS[(nx, ny)]


class TestDrag:
    def test_uniform_unit_field_gives_identity(self):
        grid = build_grid(4, 3)
        drag = assemble_drag(grid, uniform_kstar(grid))
        assert np.array_equal(drag.diagonal(), np.ones(grid.n_velocity))

    def test_harmonic_mean_between_contrasting_cells(self):
        # harmonic mean 2ab/(a+b) of 1 and 1e-5: coefficient (a+b)/(2ab) = 50000.5
        grid = build_grid(2, 1)
        kstar = PermeabilityField(np.array([1.0, 1e-5]), np.array([1.0, 1.0]))
        coeff = assemble_drag(grid, kstar).diagonal()
        assert coeff[grid.u_index(1, 0)] == pytest.approx(5.00005e4, rel=1e-12)

    @pytest.mark.parametrize("value", [1e-300, 1e-200, 1e-161, 1e200, 1e300])
    def test_two_equal_cells_keep_their_drag(self, value):
        # the product 2ab is 0 at 1e-300 and 1e-200, subnormal at 1e-161 and
        # inf at 1e200 and 1e300, but the harmonic mean of two equal cells is
        # the cell value
        grid = build_grid(2, 1)
        kstar = PermeabilityField(np.full(2, value), np.ones(2))
        coeff = assemble_drag(grid, kstar).diagonal()
        assert coeff[grid.u_index(1, 0)] == 1.0 / value

    def test_boundary_face_uses_single_cell(self):
        grid = build_grid(1, 1)
        kstar = PermeabilityField(np.array([0.5]), np.array([0.5]))
        coeff = assemble_drag(grid, kstar).diagonal()
        assert coeff[grid.u_index(0, 0)] == 2.0
        assert coeff[grid.v_index(0, 1)] == 2.0

    def test_zero_permeability_rejected(self):
        # a K* the drag block would divide by zero cannot be built
        with pytest.raises(InvalidFieldError, match="kxx must be strictly positive"):
            PermeabilityField(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_field_for_another_grid_rejected(self):
        with pytest.raises(InvalidFieldError, match="sized for 2 cells, grid has 4"):
            assemble_drag(build_grid(2, 2), uniform_kstar(build_grid(2, 1)))


#: Digests of the drag coefficients of random K* fields (seeded per grid),
#: from the face averages written out once per face lattice, which the
#: single harmonic face average reproduces bit for bit; and of the rhs of
#: the systems at anna = 0.3 under uniform data (1, -0.5), a unit lid and
#: uniform data with random forcing, from per-face wall data arrays.
DRAG_DIGESTS = {
    (1, 1): ("2329fa034245829bd476f76560ccf9a099133cf0801c16de72cb965e7e74e49c",
             "41307b20354d04c1d5af82758eee7c97a4b7857461bd474f598f9938a3911b4b"),
    (1, 3): ("b5875700da9b7b605b7b63bbd2c9c5d898a9c6669bae0f7d30cf05a64dcb3509",
             "30915ae8c3f70710c5f0a46845124fe5e4f7b353d56c65cc81cb28dfe815a5cc"),
    (3, 1): ("3549ddad4c579cf7bfa2945974ac68c6e7b0f572372430bbdcc4aed25322fa84",
             "578714b3180fff6bbfed57142c783dd0a14f18104d776da0b5d5fcabfbdf5c19"),
    (4, 3): ("793b5d476e2fedf3dcd319d7dbb8213604dd296199647bb7197de7dbe7fd40dd",
             "54ff5faf7c5d7826bb78ad076ed3a919ac8d77c76105a9b96cb6cadef968c793"),
    (13, 7): ("27c22275091c2e9e7d8e34bc04532e00e4279877ec26f2837071b69f5fd2f428",
              "083415d1e109c34f4c0314e072269d6e904d79798ba9ea770192eeabba501f87"),
    (20, 20): ("e6872a50eb9b9800032f9746f987221091036c3b9207ccde4092ec894ac424a2",
               "59da3b2c62de3424d7478ba2119f9cfe0236d9cd42395d3861a482139dcb024e"),
}


@pytest.mark.parametrize("nx, ny", DRAG_DIGESTS)
def test_drag_bytes_pinned(nx, ny):
    grid = build_grid(nx, ny)
    rng = np.random.default_rng(nx * 100 + ny)
    kstar = normalize(PermeabilityField(*np.exp(rng.uniform(-12.0, 3.0, (2, grid.n_p)))))
    forcing = rng.standard_normal(grid.n_velocity)
    uniform = BoundaryData(1.0, -0.5)
    rhs = hashlib.sha256()
    for bc, f in ((uniform, None), (BoundaryData(0.0, 0.0, lid=1.0), None), (uniform, forcing)):
        rhs.update(assemble_monolithic(grid, kstar, 0.3, bc, forcing=f).rhs.tobytes())
    digest = hashlib.sha256(drag_coefficients(grid, kstar).tobytes()).hexdigest()
    assert (digest, rhs.hexdigest()) == DRAG_DIGESTS[(nx, ny)]


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
            grid, uniform_kstar(grid), 1.0, BoundaryData(1.0, 0.0)
        )
        assert system.matrix.shape == (1240, 1240)

    def test_matrix_not_symmetric(self):
        grid = build_grid(4, 4)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData(1.0, 0.0)
        )
        assert abs(system.matrix - system.matrix.T).max() > 0.0

    @pytest.mark.parametrize("anna", [1e-3, 1.0, 1e3])
    def test_uniform_flow_is_exact_discrete_solution(self, anna):
        grid = build_grid(5, 4)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), anna, BoundaryData(1.0, 0.0)
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
                grid, uniform_kstar(grid), 1.0, BoundaryData(1.0, 0.0)
            )
            z = np.zeros(grid.n_total)
            z[grid.n_velocity:] = 1.0
            resid = np.abs(system.matrix @ z).max()
            assert resid <= 1e-14 * abs(system.matrix).sum(axis=1).max()
            assert resid == 0.0

    def test_assembly_linear_in_anna(self):
        grid = build_grid(3, 3)
        field = normalize(PermeabilityField(np.linspace(1, 2, 9), np.linspace(2, 3, 9)))
        bc = BoundaryData(1.0, 0.0)
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
                                BoundaryData(1.0, 0.0), include_drag=False)

    def test_negative_anna_rejected(self):
        grid = build_grid(2, 2)
        with pytest.raises(ValueError):
            assemble_monolithic(
                grid, uniform_kstar(grid), -1.0, BoundaryData(1.0, 0.0)
            )

    def test_boundary_rows_are_identity_with_data(self):
        grid = build_grid(3, 3)
        bc = BoundaryData(2.0, -1.0)
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
            grid, uniform_kstar(grid), 1.0, BoundaryData(1.0, 0.0),
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
                grid, field, 1.0, BoundaryData(1.0, 0.0), pin_pressure=True
            )
            x = direct_solve(system.matrix, system.rhs)
            relres = np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs)
            assert relres <= 1e-10

    def test_forcing_enters_interior_rhs(self):
        grid = build_grid(3, 3)
        forcing = np.random.default_rng(4).standard_normal(grid.n_velocity)
        bc = BoundaryData(0.0, 0.0)
        system = assemble_monolithic(grid, uniform_kstar(grid), 1.0, bc, forcing=forcing)
        interior = ~boundary_velocity_mask(grid)
        np.testing.assert_array_equal(system.rhs[: grid.n_velocity][interior], forcing[interior])
        assert np.all(system.rhs[grid.n_velocity:] == 0.0)

    @pytest.mark.parametrize("shape, value, match", [
        ((39,), 0.0, r"forcing has shape \(39,\), expected \(40,\)"),
        ((41,), 0.0, r"forcing has shape \(41,\), expected \(40,\)"),
        ((2, 20), 0.0, r"forcing has shape \(2, 20\), expected \(40,\)"),
        ((40,), np.nan, "forcing must be finite"),
        ((40,), np.inf, "forcing must be finite"),
    ], ids=["short", "long", "two-rows", "nan", "inf"])
    def test_bad_forcing_rejected(self, shape, value, match):
        # a forcing sized for another grid, or not finite, never reaches the rhs
        grid = build_grid(4, 4)  # 40 velocity faces
        forcing = np.zeros(shape)
        forcing.flat[-1] = value
        with pytest.raises(ValueError, match=match):
            assemble_monolithic(grid, uniform_kstar(grid), 1.0,
                                BoundaryData(1.0, 0.0), forcing=forcing)

    def test_blocks_are_dead_when_the_heap_is_released(self, monkeypatch):
        # the block temporaries are freed before the heap goes back to the
        # OS, once per assembly, so none of them stays resident
        grid = build_grid(6, 5)
        blocks, released = [], []
        bmat = sp.bmat

        def recording_bmat(*args, **kwargs):
            result = bmat(*args, **kwargs)
            blocks.append(weakref.ref(result))
            return result

        monkeypatch.setattr(sp, "bmat", recording_bmat)
        monkeypatch.setattr(brinkman2d.discretization, "release_freed_heap",
                            lambda: released.append([ref() for ref in blocks]))
        assemble_monolithic(grid, uniform_kstar(grid), 1.0, BoundaryData(1.0, 0.0))
        assert released == [[None]]

    def test_drag_block_can_be_excluded(self):
        grid = build_grid(3, 3)
        bc = BoundaryData(1.0, 0.0)
        with_drag = assemble_monolithic(grid, uniform_kstar(grid), 1.0, bc).matrix
        without = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, bc, include_drag=False
        ).matrix
        diff = (with_drag - without).toarray()
        interior = np.flatnonzero(~boundary_velocity_mask(grid))
        expected = np.zeros_like(diff)
        expected[interior, interior] = 1.0
        assert np.array_equal(diff, expected)

    @pytest.mark.parametrize("bc", [BoundaryData(0.0, 0.0, lid=1e308), BoundaryData(0.0, 1e308)],
                             ids=["lid", "normal"])
    def test_rhs_overflow_names_the_largest_wall_value(self, bc):
        # the top wall's tangential data is gx + lid, so a large lid overflows
        # the rhs as much as large normal data does
        grid = build_grid(4, 4)
        with pytest.raises(NumericOverflowError,
                           match=re.escape("largest wall value 1.00000e+308")):
            assemble_monolithic(grid, uniform_kstar(grid), 1e3, bc)


def coo_reference_assembly(grid, kstar, anna, bc, forcing=None, pin_pressure=False,
                           include_drag=True):
    """Triplet-level assembly of the monolithic system: the blocks' COO
    triplets concatenated, boundary rows filtered out and replaced by
    identity rows, then the pin row.  The rhs is built face by face from
    ``(gx, gy, lid)``.  Returns ``(matrix, rhs)``."""
    nv, n = grid.n_velocity, grid.n_total
    lap = assemble_laplacian(grid)
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

    # 2 g_wall / h^2 on each tangential face next to a wall (ghost reflection)
    ghost = np.zeros(nv)
    for i in range(1, grid.nx):
        ghost[grid.u_index(i, 0)] += 2.0 / grid.dy**2 * bc.gx
        ghost[grid.u_index(i, grid.ny - 1)] += 2.0 / grid.dy**2 * (bc.gx + bc.lid)
    for j in range(1, grid.ny):
        ghost[grid.v_index(0, j)] += 2.0 / grid.dx**2 * bc.gy
        ghost[grid.v_index(grid.nx - 1, j)] += 2.0 / grid.dx**2 * bc.gy
    rhs = np.zeros(n)
    rhs[:nv] = 0.0 if forcing is None else forcing
    rhs[:nv] += anna * ghost
    rhs[brows] = np.where(brows < grid.n_u, bc.gx, bc.gy)  # normal data on the wall faces

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
    return matrix, rhs


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
    forcing = np.random.default_rng(grid.n_total).standard_normal(grid.n_velocity)
    uniform = BoundaryData(1.0, -0.5)
    return (uniform, None), (BoundaryData(0.0, 0.0, lid=1.0), None), (uniform, forcing)


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
                    matrix, rhs = coo_reference_assembly(
                        grid, kstar, anna, bc, forcing, pin, include_drag)
                    got = system.matrix
                    for name in ("indptr", "indices", "data"):
                        assert getattr(got, name).tobytes() == getattr(matrix, name).tobytes(), name
                    assert system.rhs.tobytes() == rhs.tobytes()
                    cases += 1
    assert cases >= 22

