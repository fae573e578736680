import numpy as np
import pytest
import scipy.sparse as sp

from brinkman2d import (
    BoundaryData,
    SingularMatrixError,
    SolverConfig,
    apply_jacobi,
    assemble_monolithic,
    build_grid,
    direct_solve,
    gmres_solve,
    uniform_kstar,
)
from brinkman2d.solvers import SettingError

MONOTONE_SLACK = 1e-14


def shifted_random(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)


def spd_tridiagonal(n):
    return sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csr")


class CountingMatrix(sp.csr_matrix):
    """CSR matrix that counts its products with a vector."""

    matvecs = 0

    def __matmul__(self, other):
        CountingMatrix.matvecs += 1
        return super().__matmul__(other)


def mgs_gmres_reference(A, b, tol):
    """Full GMRES with scalar modified Gram-Schmidt and Givens loops, the
    form ``gmres_solve`` had before CGS2; returns ``(x, history)``."""
    n = b.size
    b_norm = np.linalg.norm(b)
    Q, H = np.zeros((n + 1, n)), np.zeros((n + 1, n))
    cs, sn, g = np.zeros(n), np.zeros(n), np.zeros(n + 1)
    Q[0], g[0] = b / b_norm, b_norm
    history = [1.0]
    for k in range(n):
        w = A @ Q[k]
        for i in range(k + 1):
            H[i, k] = Q[i] @ w
            w -= H[i, k] * Q[i]
        H[k + 1, k] = np.linalg.norm(w)
        Q[k + 1] = w / H[k + 1, k]
        for i in range(k):
            H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                    -sn[i] * H[i, k] + cs[i] * H[i + 1, k])
        denom = np.hypot(H[k, k], H[k + 1, k])
        cs[k], sn[k] = H[k, k] / denom, H[k + 1, k] / denom
        H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
        H[k + 1, k] = 0.0
        g[k + 1], g[k] = -sn[k] * g[k], cs[k] * g[k]
        history.append(abs(g[k + 1]) / b_norm)
        if history[-1] <= tol:
            break
    y = np.linalg.solve(H[: k + 1, : k + 1], g[: k + 1])
    return Q[: k + 1].T @ y, np.array(history)


def counted_solve(matrix, rhs, config):
    CountingMatrix.matvecs = 0
    x, report = gmres_solve(CountingMatrix(matrix), rhs, config)
    return x, report, CountingMatrix.matvecs


class TestGmres:
    def test_identity_converges_in_one_iteration(self):
        b = np.arange(1.0, 11.0)
        x, report = gmres_solve(sp.eye(10, format="csr"), b, SolverConfig(tol=1e-12))
        assert report.iterations == 1
        assert report.converged
        np.testing.assert_allclose(x, b, rtol=1e-14)

    def test_three_distinct_eigenvalues_three_iterations(self):
        # GMRES terminates once the minimal polynomial degree is reached
        rng = np.random.default_rng(1)
        diag = np.array([1.0, 2.0, 5.0])[rng.integers(0, 3, 30)]
        x, report = gmres_solve(
            sp.diags(diag), rng.standard_normal(30), SolverConfig(tol=1e-12)
        )
        assert report.iterations <= 3
        assert report.final_relres <= 1e-12

    def test_hand_solved_triangular_system(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        x, report = gmres_solve(A, np.array([3.0, 3.0]), SolverConfig(tol=1e-14))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-13)
        assert report.iterations <= 2
        assert report.final_relres <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_full_gmres_history_is_monotone(self, seed):
        A, b = shifted_random(60, seed)
        _, report = gmres_solve(A, b, SolverConfig(tol=1e-12))
        assert np.all(np.diff(report.residual_history) <= MONOTONE_SLACK)
        assert report.residual_history[0] == 1.0
        assert len(report.residual_history) == report.iterations + 1

    @pytest.mark.parametrize("n", [60, 200])
    def test_finite_termination_within_n_iterations(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        b = rng.standard_normal(n)
        x, report = gmres_solve(A, b, SolverConfig(tol=1e-10, maxit=n))
        assert report.converged
        assert report.iterations <= n
        assert report.final_relres <= 1e-10

    def test_oracle_equivalence_on_random_systems(self):
        cfg = SolverConfig(tol=1e-6)
        for seed in range(8):
            A, b = shifted_random(100, seed)
            x, report = gmres_solve(A, b, cfg)
            reference = direct_solve(A, b)
            assert report.converged
            rel = np.linalg.norm(x - reference) / np.linalg.norm(reference)
            assert rel <= 100 * cfg.tol

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_modified_gram_schmidt_reference(self, seed):
        # CGS2 reorders the orthogonalisation sums; on these well-conditioned
        # systems (cond < 2) both must agree to ~500 ulps of the unit-norm data
        A, b = shifted_random(60, seed)
        x, report = gmres_solve(A, b, SolverConfig(tol=1e-12))
        x_ref, history_ref = mgs_gmres_reference(A, b, 1e-12)
        assert report.iterations == len(history_ref) - 1
        np.testing.assert_allclose(report.residual_history, history_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-13 * np.abs(x_ref).max())

    def test_deterministic_repeat(self):
        A, b = shifted_random(80, 7)
        x1, r1 = gmres_solve(A, b, SolverConfig(tol=1e-9))
        x2, r2 = gmres_solve(A, b, SolverConfig(tol=1e-9))
        assert np.array_equal(x1, x2)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.residual_history, r2.residual_history)

    def test_zero_rhs(self):
        x, report = gmres_solve(np.eye(4), np.zeros(4))
        assert np.all(x == 0.0)
        assert report.converged
        assert report.final_relres == 0.0
        assert report.iterations == 0

    def test_maxit_exceeded_returns_best_iterate(self):
        A, b = shifted_random(50, 3)
        x, report = gmres_solve(A, b, SolverConfig(tol=1e-14, maxit=5))
        assert not report.converged
        assert report.iterations == 5
        # the iterate still reduced the residual below the initial one
        assert report.final_relres < 1.0

    def test_restarted_gmres_converges(self):
        A, b = shifted_random(60, 9)
        x, report = gmres_solve(A, b, SolverConfig(tol=1e-8, maxit=600, restart=5))
        full = gmres_solve(A, b, SolverConfig(tol=1e-8))[1]
        assert report.converged
        assert report.iterations >= full.iterations

    def test_happy_breakdown_on_invariant_subspace(self):
        A = sp.diags([1.0, 2.0, 3.0, 4.0, 5.0])
        b = np.zeros(5)
        b[0] = 2.0
        x, report = gmres_solve(A, b, SolverConfig(tol=1e-12))
        assert report.iterations == 1
        assert report.converged
        np.testing.assert_allclose(x, [2.0, 0, 0, 0, 0], atol=1e-14)

    def test_singular_but_compatible_system(self):
        grid = build_grid(8, 8)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0)
        )
        x, report = gmres_solve(system.matrix, system.rhs, SolverConfig(tol=1e-8))
        assert report.converged
        np.testing.assert_allclose(x[: grid.n_u], 1.0, atol=1e-6)

    def test_rhs_length_mismatch(self):
        with pytest.raises(ValueError):
            gmres_solve(np.eye(3), np.ones(4))
        with pytest.raises(ValueError):
            gmres_solve(np.ones((3, 4)), np.ones(3))

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="matrix has NaN or inf"):
            gmres_solve(sp.diags([1.0, np.nan, 1.0], format="csr"), np.ones(3))
        with pytest.raises(ValueError, match="rhs has NaN or inf"):
            gmres_solve(np.eye(3), np.array([1.0, np.inf, 0.0]))

    def test_oversized_krylov_basis_refused_before_allocation(self, monkeypatch):
        # default maxit = n asks for a (n+1) x n basis: 298 GiB at n = 200000
        matrix, rhs = sp.identity(200_000, format="csr"), np.ones(200_000)

        def refuse_2d(allocate):
            def guarded(shape, *args, **kwargs):
                if np.ndim(shape) == 1 and len(shape) == 2:
                    raise AssertionError(f"2-D allocation {shape}")
                return allocate(shape, *args, **kwargs)
            return guarded

        monkeypatch.setattr(np, "empty", refuse_2d(np.empty))
        monkeypatch.setattr(np, "zeros", refuse_2d(np.zeros))
        with pytest.raises(SettingError, match="n = 200000 unknowns") as info:
            gmres_solve(matrix, rhs)
        assert info.value.field == "restart"
        assert "solver.restart" in str(info.value)

    def test_maxit_one(self):
        _, report, matvecs = counted_solve(spd_tridiagonal(20), np.ones(20),
                                           SolverConfig(tol=1e-12, maxit=1))
        assert report.iterations == 1
        assert not report.converged
        assert matvecs == 1 + 1 + 1  # iterations + cycles + 1
        assert len(report.residual_history) == 2
        assert report.final_relres == pytest.approx(report.residual_history[-1], rel=1e-12)

    def test_gmres_one_converges_on_spd_system(self):
        A, b = spd_tridiagonal(20), np.linspace(1.0, 2.0, 20)
        x, report, matvecs = counted_solve(A, b, SolverConfig(tol=1e-8, maxit=500, restart=1))
        assert report.converged
        assert matvecs == 2 * report.iterations + 1  # one cycle per iteration
        assert len(report.residual_history) == report.iterations + 1
        assert np.all(np.diff(report.residual_history) <= MONOTONE_SLACK)
        np.testing.assert_allclose(x, direct_solve(A, b), rtol=1e-6)

    def test_restart_two_over_several_cycles(self):
        A, b = spd_tridiagonal(20), np.linspace(1.0, 2.0, 20)
        x, report, matvecs = counted_solve(A, b, SolverConfig(tol=1e-8, maxit=500, restart=2))
        cycles = -(-report.iterations // 2)
        assert report.converged
        assert cycles >= 3
        assert matvecs == report.iterations + cycles + 1
        assert len(report.residual_history) == report.iterations + 1
        assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-8


class TestJacobi:
    def test_identity_preconditioner_is_identity(self):
        assert np.array_equal(apply_jacobi(sp.eye(5, format="csr")), np.ones(5))

    def test_exact_diagonal_converges_in_one_iteration(self):
        A = sp.diags([10.0, 0.1])
        cfg = SolverConfig(tol=1e-12, preconditioner="jacobi")
        x, report = gmres_solve(A, np.array([1.0, 1.0]), cfg)
        assert report.iterations == 1
        np.testing.assert_allclose(x, [0.1, 10.0], rtol=1e-13)

    def test_zero_diagonal_rows_fall_back_to_unit_scale(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(apply_jacobi(A), np.ones(2))
        x, report = gmres_solve(A, np.array([2.0, 3.0]),
                                SolverConfig(tol=1e-12, preconditioner="jacobi"))
        assert report.converged
        np.testing.assert_allclose(x, [3.0, 2.0], rtol=1e-13)

    def test_saddle_point_diagonal_scaling(self):
        grid = build_grid(4, 4)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0)
        )
        scale = apply_jacobi(system.matrix)
        assert np.all(scale[grid.n_velocity:] == 1.0)  # zero pressure diagonal


class TestDirect:
    def test_identity(self):
        b = np.arange(4.0)
        np.testing.assert_array_equal(direct_solve(np.eye(4), b), b)

    def test_hand_solved_system(self):
        x = direct_solve(np.array([[2.0, 1.0], [0.0, 3.0]]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)

    def test_residual_small_for_well_conditioned_input(self):
        A, b = shifted_random(300, 12)
        x = direct_solve(A, b)
        assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-12

    def test_singular_matrix_names_pivot(self):
        with pytest.raises(SingularMatrixError, match="index 1"):
            direct_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))
        with pytest.raises(SingularMatrixError):
            direct_solve(np.zeros((3, 3)), np.ones(3))

    def test_sparse_path_beyond_dense_limit(self):
        n = 6000
        A = sp.diags(np.linspace(1.0, 2.0, n), format="csr")
        b = np.ones(n)
        x = direct_solve(A, b)
        np.testing.assert_allclose(x, 1.0 / np.linspace(1.0, 2.0, n), rtol=1e-12)

    def test_sparse_singular_detected(self):
        n = 5500
        diag = np.ones(n)
        diag[17] = 0.0
        with pytest.raises(SingularMatrixError):
            direct_solve(sp.diags(diag, format="csr"), np.ones(n))

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="matrix has NaN or inf"):
            direct_solve(np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(ValueError, match="rhs has NaN or inf"):
            direct_solve(np.eye(3), np.array([1.0, np.nan, 0.0]))

    def test_csc_input_with_explicit_zeros_left_unchanged(self):
        A = sp.csc_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]))
        A.data[A.data == 1.0] = 0.0  # explicit zeros, kept in the structure
        nnz, data = A.nnz, A.data.copy()
        x = direct_solve(A, np.ones(3))
        np.testing.assert_allclose(x, [0.5, 1.0 / 3.0, 0.25], rtol=1e-15)
        assert A.nnz == nnz
        assert np.array_equal(A.data, data)

    def test_pinned_uniform_flow_recovered_exactly(self):
        grid = build_grid(6, 5)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0),
            pin_pressure=True,
        )
        x = direct_solve(system.matrix, system.rhs)
        assert np.abs(x[: grid.n_u] - 1.0).max() <= 1e-10
        assert np.abs(x[grid.n_u: grid.n_velocity]).max() <= 1e-10


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(maxit=0)
    with pytest.raises(ValueError):
        SolverConfig(restart=0)
    with pytest.raises(ValueError):
        SolverConfig(preconditioner="ilu")
