import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import brinkman2d.analysis as analysis
from brinkman2d import (
    BoundaryData,
    SolverConfig,
    UnsupportedSizeError,
    assemble_monolithic,
    build_grid,
    check_divergence,
    condition_number,
    eigen_spectrum,
    generate_contrast_field,
    gmres_solve,
    limit_checks,
    manufactured_run,
    normalize,
    sweep_darcy,
    uniform_kstar,
    write_regime_csv,
)
from brinkman2d.analysis import (
    mms_forcing,
    mms_pressure,
    mms_pressure_gradient,
    mms_velocity,
    mms_velocity_laplacian,
)
from conftest import SWEEP_TOL


#: ``regime_table.csv`` of the canonical sweep (the session ``regime_sweep``)
#: written with ``timings=False``.
CANONICAL_REGIME_TABLE = [
    "da,anna,kappa,kappa_flag,iterations,relres,regime,wall_ms",
    "1.00000e-05,1.00000e-05,1.53590e+09,pinned,1142,9.98186e-07,darcy,0.00000e+00",
    "1.00000e-04,1.00000e-04,1.53592e+09,pinned,1142,9.90539e-07,darcy,0.00000e+00",
    "1.00000e-03,1.00000e-03,1.53605e+09,pinned,1142,7.98960e-07,darcy,0.00000e+00",
    "1.00000e-02,1.00000e-02,1.53733e+09,pinned,1129,9.50357e-07,brinkman,0.00000e+00",
    "1.00000e-01,1.00000e-01,1.55050e+09,pinned,1019,9.84253e-07,brinkman,0.00000e+00",
    "1.00000e+00,1.00000e+00,1.76119e+09,pinned,828,9.06068e-07,brinkman,0.00000e+00",
    "1.00000e+01,1.00000e+01,1.16441e+10,pinned,546,9.36291e-07,brinkman,0.00000e+00",
    "1.00000e+02,1.00000e+02,3.51837e+11,pinned,314,8.71114e-07,brinkman,0.00000e+00",
    "1.00000e+03,1.00000e+03,2.85691e+13,pinned,126,9.99599e-07,stokes,0.00000e+00",
    "1.00000e+04,1.00000e+04,2.82168e+15,pinned-singular,44,9.40962e-07,stokes,0.00000e+00",
    "1.00000e+05,1.00000e+05,2.82045e+17,pinned-singular,37,8.01088e-07,stokes,0.00000e+00",
]

class TestConditionNumber:
    def test_identity(self):
        report = condition_number(np.eye(7))
        assert report.kappa == 1.0
        assert not report.numerically_singular

    def test_diagonal_ratio(self):
        assert condition_number(np.diag([1.0, 10.0])).kappa == pytest.approx(10.0, rel=1e-13)

    def test_known_diagonal_spread(self):
        # singular values of a diagonal matrix are its absolute entries
        report = condition_number(np.diag(np.arange(1.0, 101.0)))
        assert report.kappa == pytest.approx(100.0, rel=1e-12)

    def test_numerically_singular_flag(self):
        report = condition_number(np.diag([1.0, 1e-20, 1.0]))
        assert report.numerically_singular
        grid = build_grid(4, 4)
        unpinned = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0)
        )
        assert condition_number(unpinned.matrix).numerically_singular

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            condition_number(sp.eye(3001, format="csr"))
        with pytest.raises(ValueError):
            condition_number(np.ones((3, 4)))


def pinned_matrix(n, contrast, anna):
    grid = build_grid(n, n)
    field = generate_contrast_field(grid, contrast, contrast, "layered", 0)
    return assemble_monolithic(
        grid, normalize(field), anna, BoundaryData.uniform(grid, 1.0, 0.0), pin_pressure=True
    ).matrix


class TestSparseConditionNumber:
    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("contrast", [1e2, 1e5])
    def test_agrees_with_dense_svd(self, n, contrast):
        for anna in np.logspace(-5, 5, 11):
            matrix = pinned_matrix(n, contrast, anna)
            sparse, dense = condition_number(matrix), condition_number(matrix.toarray())
            assert sparse.kappa == pytest.approx(dense.kappa, rel=1e-6)
            assert sparse.numerically_singular == dense.numerically_singular

    def test_sparse_path_takes_no_dense_svd(self, monkeypatch):
        matrix = pinned_matrix(8, 1e5, 1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("dense SVD called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert math.isfinite(condition_number(matrix).kappa)

    def test_factors_once_through_the_sparse_lu_helper(self, splu_calls):
        condition_number(pinned_matrix(8, 1e5, 1.0))
        assert splu_calls == [("_sparse_lu", {"relax": 1, "panel_size": 1})]

    def test_transpose_built_once(self):
        # each Lanczos step applies A^T; binding it once gives the same
        # csc_matvec kernel, so the same kappa bits
        class CountingTranspose(sp.csr_matrix):
            calls = 0

            def transpose(self, *args, **kwargs):
                CountingTranspose.calls += 1
                return super().transpose(*args, **kwargs)

        matrix = pinned_matrix(8, 1e5, 1.0)
        report = condition_number(CountingTranspose(matrix))
        assert CountingTranspose.calls <= 1
        assert report == condition_number(matrix)

    @pytest.mark.parametrize("matrix", [pinned_matrix(8, 1e5, 1e5), sp.eye(7, format="csr")])
    def test_repeated_calls_bit_identical(self, matrix):
        # the identity breaks the Lanczos run down at its first step, where
        # ARPACK draws a random restart vector
        assert len({condition_number(matrix).kappa for _ in range(10)}) == 1

    @pytest.mark.parametrize("diagonal", [[1.0, 0.0, 1.0], [2.0]])
    def test_exactly_singular_or_scalar_gets_dense_report(self, diagonal):
        # splu refuses the exactly singular factor; ARPACK needs n > 1
        matrix = np.diag(diagonal)
        assert condition_number(sp.csr_matrix(matrix)) == condition_number(matrix)

    def test_arpack_no_convergence_gets_dense_report(self, monkeypatch):
        matrix = pinned_matrix(4, 1e5, 1.0)

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        assert condition_number(matrix) == condition_number(matrix.toarray())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        matrix = np.eye(4)
        matrix[1, 2] = bad
        for given in (matrix, sp.csr_matrix(matrix)):
            for function in (condition_number, eigen_spectrum):
                with pytest.raises(ValueError, match="matrix has NaN or inf entries"):
                    function(given)


class TestSpectrum:
    def test_identity_spectrum(self):
        report = eigen_spectrum(np.eye(6))
        np.testing.assert_allclose(report.eigenvalues, 1.0)
        assert report.min_abs == pytest.approx(1.0)
        assert report.min_abs_nonzero == pytest.approx(1.0)

    def test_unpinned_system_has_numerical_nullspace(self):
        grid = build_grid(4, 4)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0)
        )
        report = eigen_spectrum(system.matrix)
        assert report.min_abs <= 1e-10
        assert report.min_abs_nonzero > 1e-10

    def test_pinned_min_eigenvalue_close_to_sigma_min(self):
        # smallest singular value lower-bounds every |eigenvalue|
        grid = build_grid(1, 1)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0),
            pin_pressure=True,
        )
        n = system.matrix.shape[0]
        sigma_min = np.linalg.svd(system.matrix.toarray(), compute_uv=False)[-1]
        report = eigen_spectrum(system.matrix)
        assert report.min_abs_nonzero >= sigma_min * (1 - 1e-12)
        assert report.min_abs_nonzero <= n * sigma_min


class TestCheckDivergence:
    def test_uniform_flow(self):
        grid = build_grid(5, 3)
        vec = np.concatenate([np.ones(grid.n_u), np.zeros(grid.n_v)])
        assert check_divergence(grid, vec) == 0.0

    def test_linear_velocity_has_unit_divergence(self):
        grid = build_grid(4, 4)
        xu, _ = grid.u_coords()
        vec = np.concatenate([xu, np.zeros(grid.n_v)])
        assert check_divergence(grid, vec) == pytest.approx(1.0, abs=1e-12)

    def test_direct_solution_is_discretely_divergence_free(self):
        grid = build_grid(8, 8)
        field = generate_contrast_field(grid, 1e3, 1e3, "layered", 0)
        system = assemble_monolithic(
            grid, normalize(field), 1.0, BoundaryData.uniform(grid, 1.0, 0.0),
            pin_pressure=True,
        )
        x = np.asarray(np.linalg.solve(system.matrix.toarray(), system.rhs))
        assert check_divergence(grid, x[: grid.n_velocity]) <= 1e-10

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            check_divergence(build_grid(3, 3), np.ones(5))


class TestSweep:
    def small_setup(self):
        grid = build_grid(6, 6)
        field = generate_contrast_field(grid, 100.0, 100.0, "layered", 0)
        bc = BoundaryData.uniform(grid, 1.0, 0.0)
        return grid, field, bc

    def test_row_per_da_point(self):
        grid, field, bc = self.small_setup()
        rows = sweep_darcy(grid, field, (1e-2, 1.0, 1e2), 1.0, bc, SolverConfig())
        assert len(rows) == 3
        assert [r.da for r in rows] == [1e-2, 1.0, 1e2]

    def test_anna_equals_da_for_unit_viscosity_ratio(self):
        grid, field, bc = self.small_setup()
        rows = sweep_darcy(grid, field, (1e-3, 1e3), 1.0, bc, SolverConfig())
        for row in rows:
            assert row.anna == row.da

    def test_viscosity_ratio_scales_anna(self):
        grid, field, bc = self.small_setup()
        rows = sweep_darcy(grid, field, (1.0,), 0.5, bc, SolverConfig())
        assert rows[0].anna == 0.5

    def test_single_point_sweep_matches_standalone_solve(self):
        grid, field, bc = self.small_setup()
        config = SolverConfig(tol=1e-6)
        rows = sweep_darcy(grid, field, (1.0,), 1.0, bc, config)
        system = assemble_monolithic(grid, normalize(field), 1.0, bc)
        _, report = gmres_solve(system.matrix, system.rhs, config)
        assert rows[0].iterations == report.iterations
        assert rows[0].final_relres == report.final_relres

    def test_kappa_computed_on_pinned_matrix(self):
        grid, field, bc = self.small_setup()
        rows = sweep_darcy(grid, field, (1.0,), 1.0, bc, SolverConfig())
        row = rows[0]
        assert row.kappa_flag in ("pinned", "pinned-singular")
        pinned = assemble_monolithic(grid, normalize(field), 1.0, bc, pin_pressure=True)
        assert row.kappa == pytest.approx(condition_number(pinned.matrix).kappa, rel=1e-10)

    def test_kappa_can_be_omitted(self, monkeypatch):
        # a system larger than the decomposition limit gets no kappa
        grid, field, bc = self.small_setup()
        monkeypatch.setattr(analysis, "DENSE_DECOMP_LIMIT", grid.n_total - 1)
        rows = sweep_darcy(grid, field, (1.0,), 1.0, bc, SolverConfig())
        assert rows[0].kappa is None
        assert rows[0].kappa_flag == "omitted"

    def test_every_solve_runs_before_the_first_kappa(self, monkeypatch):
        # the first kappa loads SuperLU and ARPACK; no solve may follow it
        grid, field, bc = self.small_setup()
        calls = []

        def logging(name, function):
            def logged(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return logged

        monkeypatch.setattr(analysis, "gmres_solve", logging("solve", analysis.gmres_solve))
        monkeypatch.setattr(analysis, "condition_number",
                            logging("kappa", analysis.condition_number))
        sweep_darcy(grid, field, (1e-2, 1.0, 1e2), 1.0, bc, SolverConfig())
        assert calls == ["solve"] * 3 + ["kappa"] * 3

    @pytest.mark.parametrize("pin_pressure", [True, False])
    def test_assemblies_per_point(self, pin_pressure, monkeypatch):
        # one assembly to solve each point, one pinned assembly for its kappa
        grid, field, bc = self.small_setup()
        pinned_flags = []

        def counting(*args, **kwargs):
            pinned_flags.append(kwargs["pin_pressure"])
            return assemble_monolithic(*args, **kwargs)

        monkeypatch.setattr(analysis, "assemble_monolithic", counting)
        rows = sweep_darcy(grid, field, (1e-2, 1.0, 1e2), 1.0, bc, SolverConfig(),
                            pin_pressure=pin_pressure)
        assert pinned_flags == [pin_pressure] * 3 + [True] * 3
        for row in rows:
            pinned = assemble_monolithic(grid, normalize(field), row.anna, bc, pin_pressure=True)
            assert row.kappa == condition_number(pinned.matrix).kappa

    def test_failed_point_recorded_and_sweep_continues(self):
        grid, field, bc = self.small_setup()
        rows = sweep_darcy(grid, field, (1e-2, 1.0, 1e2), 1.0, bc,
                            SolverConfig(tol=1e-6, maxit=2))
        assert len(rows) == 3
        assert not any(r.converged for r in rows)

    def test_da_validation(self):
        grid, field, bc = self.small_setup()
        with pytest.raises(ValueError):
            sweep_darcy(grid, field, (), 1.0, bc, SolverConfig())
        with pytest.raises(ValueError):
            sweep_darcy(grid, field, (1.0, 0.1), 1.0, bc, SolverConfig())
        with pytest.raises(ValueError):
            sweep_darcy(grid, field, (-1.0, 1.0), 1.0, bc, SolverConfig())
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                sweep_darcy(grid, field, (1.0, bad), 1.0, bc, SolverConfig())

    def test_regime_column(self):
        grid, field, bc = self.small_setup()
        rows = sweep_darcy(grid, field, (1e-5, 1.0, 1e5), 1.0, bc, SolverConfig())
        assert [r.regime.value for r in rows] == ["darcy", "brinkman", "stokes"]

    def test_replication_sequence(self, regime_sweep):
        assert [row.iterations for row in regime_sweep] == \
            [1142, 1142, 1142, 1129, 1019, 828, 546, 314, 126, 44, 37]
        assert [row.kappa_flag for row in regime_sweep] == \
            ["pinned"] * 9 + ["pinned-singular"] * 2

    @pytest.mark.xfail(
        strict=True,
        reason="unpreconditioned GMRES stopped at relres 1e-6 does not bound the "
        "continuity residual once anna-scaled wall terms dominate the right-hand "
        "side; measured divergence exceeds 10*tol*||u|| for Da >= 1 on the "
        "replication sweep",
    )
    def test_converged_rows_divergence_within_tolerance(self, regime_sweep):
        for row in regime_sweep:
            if row.converged:
                assert row.divergence_max <= 10.0 * SWEEP_TOL * row.velocity_norm


class TestCsvOutput:
    def test_regime_csv_format(self, tmp_path):
        grid = build_grid(6, 6)
        field = generate_contrast_field(grid, 100.0, 100.0, "layered", 0)
        bc = BoundaryData.uniform(grid, 1.0, 0.0)
        rows = sweep_darcy(grid, field, (1e-1, 1e1), 1.0, bc, SolverConfig())
        path = tmp_path / "table.csv"
        write_regime_csv(rows, path, timings=False)
        lines = path.read_text().splitlines()
        assert lines[0] == "da,anna,kappa,kappa_flag,iterations,relres,regime,wall_ms"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1.00000e-01"
        assert first[7] == "0.00000e+00"
        write_regime_csv(rows, path, timings=False)
        assert path.read_text().splitlines() == lines  # rewrite is reproducible

    def test_canonical_sweep_csv_bytes(self, regime_sweep, tmp_path):
        path = tmp_path / "regime_table.csv"
        write_regime_csv(regime_sweep, path, timings=False)
        assert path.read_text().splitlines() == CANONICAL_REGIME_TABLE, (
            "the canonical regime_table.csv moved a digit: if the change is meant, "
            "update CANONICAL_REGIME_TABLE and record the move in CHANGES.md"
        )

    def test_regime_csv_omitted_kappa_blank(self, tmp_path, monkeypatch):
        grid = build_grid(6, 6)
        field = generate_contrast_field(grid, 10.0, 10.0, "layered", 0)
        bc = BoundaryData.uniform(grid, 1.0, 0.0)
        monkeypatch.setattr(analysis, "DENSE_DECOMP_LIMIT", grid.n_total - 1)
        rows = sweep_darcy(grid, field, (1.0,), 1.0, bc, SolverConfig())
        path = tmp_path / "table.csv"
        write_regime_csv(rows, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[2] == ""
        assert row[3] == "omitted"


class TestManufacturedSolution:
    def test_exact_velocity_is_divergence_free(self):
        # central differences as an independent check of the closed forms
        rng = np.random.default_rng(8)
        x, y = rng.uniform(0.2, 0.8, 50), rng.uniform(0.2, 0.8, 50)
        h = 1e-6
        dudx = (mms_velocity(x + h, y)[0] - mms_velocity(x - h, y)[0]) / (2 * h)
        dvdy = (mms_velocity(x, y + h)[1] - mms_velocity(x, y - h)[1]) / (2 * h)
        np.testing.assert_allclose(dudx + dvdy, 0.0, atol=1e-8)

    def test_velocity_vanishes_on_walls(self):
        s = np.linspace(0.0, 1.0, 21)
        for xw, yw in ((s, np.zeros_like(s)), (s, np.ones_like(s)),
                       (np.zeros_like(s), s), (np.ones_like(s), s)):
            u, v = mms_velocity(xw, yw)
            np.testing.assert_allclose(u, 0.0, atol=1e-15)
            np.testing.assert_allclose(v, 0.0, atol=1e-15)

    def test_closed_form_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x, y = rng.uniform(0.1, 0.9, 40), rng.uniform(0.1, 0.9, 40)
        h = 1e-5
        lap_u_fd = (
            mms_velocity(x + h, y)[0] + mms_velocity(x - h, y)[0]
            + mms_velocity(x, y + h)[0] + mms_velocity(x, y - h)[0]
            - 4 * mms_velocity(x, y)[0]
        ) / h**2
        lap_v_fd = (
            mms_velocity(x + h, y)[1] + mms_velocity(x - h, y)[1]
            + mms_velocity(x, y + h)[1] + mms_velocity(x, y - h)[1]
            - 4 * mms_velocity(x, y)[1]
        ) / h**2
        lap_u, lap_v = mms_velocity_laplacian(x, y)
        np.testing.assert_allclose(lap_u_fd, lap_u, atol=1e-4)
        np.testing.assert_allclose(lap_v_fd, lap_v, atol=1e-4)
        dpdx_fd = (mms_pressure(x + h, y) - mms_pressure(x - h, y)) / (2 * h)
        dpdy_fd = (mms_pressure(x, y + h) - mms_pressure(x, y - h)) / (2 * h)
        dpdx, dpdy = mms_pressure_gradient(x, y)
        np.testing.assert_allclose(dpdx_fd, dpdx, atol=1e-8)
        np.testing.assert_allclose(dpdy_fd, dpdy, atol=1e-8)

    def test_forcing_balances_momentum_equation(self):
        # f = -anna lap(u) + u / K* + grad(p) with K* = 1, u faces then v faces
        grid = build_grid(5, 7)
        anna = 0.7
        forcing = mms_forcing(grid, anna)
        assert forcing.shape == (grid.n_velocity,)
        xu, yu = grid.u_coords()
        u, _ = mms_velocity(xu, yu)
        lap_u, _ = mms_velocity_laplacian(xu, yu)
        dpdx, _ = mms_pressure_gradient(xu, yu)
        np.testing.assert_allclose(forcing[: grid.n_u], -anna * lap_u + u + dpdx, rtol=1e-14)
        xv, yv = grid.v_coords()
        _, v = mms_velocity(xv, yv)
        _, lap_v = mms_velocity_laplacian(xv, yv)
        _, dpdy = mms_pressure_gradient(xv, yv)
        np.testing.assert_allclose(forcing[grid.n_u:], -anna * lap_v + v + dpdy, rtol=1e-14)

    def test_requires_three_grid_levels(self):
        with pytest.raises(ValueError):
            manufactured_run((16, 32), anna=1.0)

    def test_second_order_velocity_convergence(self):
        study = manufactured_run((8, 16, 32), anna=1.0)
        assert np.all(study.velocity_errors[:-1] > study.velocity_errors[1:])
        assert np.all((study.velocity_orders > 1.5) & (study.velocity_orders < 2.5))


class TestUniformFlowError:
    @pytest.mark.parametrize("gx, gy", [(1.0, 0.5), (1e-200, 5e-201), (1e5, -5e4), (0.0, 1e8)])
    def test_relative_to_the_largest_wall_value(self, gx, gy):
        # the discrete problem is linear in the wall data, so the error
        # relative to it stays at roundoff whatever the units
        assert analysis.uniform_flow_error(build_grid(8, 8), 1.0, gx, gy) <= 1e-13

    def test_zero_wall_data_is_refused(self):
        with pytest.raises(ValueError, match="needs nonzero wall data"):
            analysis.uniform_flow_error(build_grid(4, 4), 1.0, 0.0, 0.0)


def test_l2_norm_is_free_of_the_scale():
    for scale in (1e-300, 1e-200, 1.0, 1e200, 1e300):
        assert analysis.l2_norm(np.array([3.0, 4.0]) * scale) == pytest.approx(5.0 * scale)
    assert analysis.l2_norm(np.zeros(3)) == 0.0


class TestLimits:
    def test_limits_agree_with_oracles(self):
        grid = build_grid(8, 8)
        field = generate_contrast_field(grid, 1e5, 1e5, "layered", 0)
        bc = BoundaryData.uniform(grid, 1.0, 0.0)
        report = limit_checks(grid, field, bc)
        assert report.darcy_rel_diff <= 1e-3
        assert report.stokes_rel_diff <= 1e-3
        assert report.stokes_rel_diff > 0.0  # lid flow actually exercises the drag

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e5, 1e8])
    def test_relative_differences_do_not_depend_on_the_units(self, scale):
        grid = build_grid(8, 8)
        field = generate_contrast_field(grid, 1e5, 1e5, "layered", 0)
        unit = limit_checks(grid, field, BoundaryData(1.0, 0.0))
        scaled = limit_checks(grid, field, BoundaryData(scale, 0.0))
        assert scaled.darcy_rel_diff == pytest.approx(unit.darcy_rel_diff, rel=1e-6)
        assert scaled.stokes_rel_diff == unit.stokes_rel_diff  # lid data, not bc

    def test_zero_wall_data_is_refused(self):
        # both reference flows vanish, and a relative difference would be 0/0
        grid = build_grid(4, 4)
        field = generate_contrast_field(grid, 10.0, 10.0, "layered", 0)
        with pytest.raises(ValueError, match="Darcy reference flow is identically zero"):
            limit_checks(grid, field, BoundaryData.uniform(grid, 0.0, 0.0))

    def test_darcy_oracle_is_the_zero_anna_assembly(self):
        grid = build_grid(4, 4)
        field = generate_contrast_field(grid, 10.0, 10.0, "checkerboard", 0)
        bc = BoundaryData.uniform(grid, 1.0, 0.0)
        m0 = assemble_monolithic(grid, normalize(field), 0.0, bc, pin_pressure=True)
        m1 = assemble_monolithic(grid, normalize(field), 1.0, bc, pin_pressure=True)
        m2 = assemble_monolithic(grid, normalize(field), 2.0, bc, pin_pressure=True)
        # assembly is affine in anna, so the oracle is its anna -> 0 limit
        np.testing.assert_array_equal(
            m0.matrix.toarray(), 2.0 * m1.matrix.toarray() - m2.matrix.toarray()
        )
