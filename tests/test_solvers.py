import ctypes
import tracemalloc
import types
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import brinkman2d.solvers
from brinkman2d import (
    BoundaryData,
    SingularMatrixError,
    SolverConfig,
    assemble_monolithic,
    build_grid,
    direct_solve,
    generate_contrast_field,
    gmres_solve,
    normalize,
    uniform_kstar,
)
from brinkman2d._util import ConfigError, NumericOverflowError, release_freed_heap
from brinkman2d.analysis import mms_forcing
from brinkman2d.solvers import _sparse_lu

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


def cgs2_givens_reference(A, b, tol, maxit, restart):
    """Restarted GMRES with CGS2 and every earlier Givens rotation applied to
    each new Hessenberg column, the form ``gmres_solve`` had before it kept
    one rotation row per step; no breakdown handling.  Returns
    ``(x, history)``."""
    n = b.size
    b_norm = np.linalg.norm(b)
    x = np.zeros(n)
    history, total = [1.0], 0
    while True:
        r = b - A @ x
        if np.linalg.norm(r) / b_norm <= tol or total >= maxit:
            return x, np.array(history)
        m = min(restart, maxit - total)
        Q, H = np.empty((m + 1, n)), np.zeros((m + 1, m))
        cs, sn, g = [], [], [np.linalg.norm(r)]
        Q[0] = r / g[0]
        for k in range(m):
            w = A @ Q[k]
            h = Q[: k + 1] @ w
            w -= h @ Q[: k + 1]
            h2 = Q[: k + 1] @ w
            w -= h2 @ Q[: k + 1]
            h += h2
            h_next = np.linalg.norm(w)
            col = h.tolist() + [h_next]
            for i in range(k):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      -sn[i] * col[i] + cs[i] * col[i + 1])
            denom = np.hypot(col[k], col[k + 1])
            cs.append(col[k] / denom)
            sn.append(col[k + 1] / denom)
            col[k] = cs[k] * col[k] + sn[k] * col[k + 1]
            H[: k + 1, k] = col[: k + 1]
            g.append(-sn[k] * g[k])
            g[k] = cs[k] * g[k]
            total += 1
            history.append(abs(g[k + 1]) / b_norm)
            if history[-1] <= tol or total >= maxit:
                break
            Q[k + 1] = w / h_next
        y = scipy.linalg.solve_triangular(H[: k + 1, : k + 1], np.array(g[: k + 1]))
        x = x + Q[: k + 1].T @ y


def back_substitute(R, g):
    """Solve the upper-triangular ``R y = g`` row by row, from the last row
    up, with the arithmetic of ``gmres_solve`` on its packed rows."""
    y = np.array(g)
    for i in range(y.size - 1, -1, -1):
        y[i] = (y[i] - R[i, i + 1:] @ y[i + 1:]) / R[i, i]
    return y


def per_cycle_gmres_reference(A, b, cfg):
    """The loop of ``gmres_solve`` before it kept one workspace per solve and
    packed the Hessenberg: a fresh ``Q`` and dense ``H`` every restart cycle,
    the triangle solved by :func:`back_substitute` on the dense rows.
    Returns ``(x, history)``."""
    n = b.size
    maxit = cfg.maxit if cfg.maxit is not None else n
    restart = min(cfg.restart if cfg.restart is not None else maxit, maxit)
    b_norm = float(np.linalg.norm(b))
    x = np.zeros(n)
    history = [1.0]
    total_iters = 0
    breakdown = False
    while True:
        r = b - A @ x
        r_norm = float(np.linalg.norm(r))
        if r_norm / b_norm <= cfg.tol or total_iters >= maxit or breakdown or r_norm == 0.0:
            return x, np.asarray(history)
        m = min(restart, maxit - total_iters, n)
        Q = np.empty((m + 1, n))
        H = np.zeros((m + 1, m))
        cs, sn = np.empty(m), np.empty(m)
        omega = np.zeros(m + 1)
        omega[0] = 1.0
        g = [r_norm]
        Q[0] = r / r_norm
        k_used = 0
        for k in range(m):
            w = A @ Q[k]
            w_scale = float(np.linalg.norm(w))
            Qk = Q[: k + 1]
            h = Qk @ w
            w -= h @ Qk
            h2 = Qk @ w
            w -= h2 @ Qk
            h += h2
            h_next = float(np.linalg.norm(w))
            H[: k + 1, k] = h
            H[k + 1, k] = h_next
            a = float(omega[: k + 1] @ h)
            denom = float(np.hypot(a, h_next))
            if denom == 0.0:
                c, s = 0.0, 1.0
            else:
                c, s = a / denom, h_next / denom
            cs[k], sn[k] = c, s
            omega[: k + 1] *= -s
            omega[k + 1] = c
            g.append(-s * g[k])
            g[k] = c * g[k]
            total_iters += 1
            k_used = k + 1
            est = abs(g[k + 1]) / b_norm
            history.append(est)
            if h_next <= 1e-14 * max(w_scale, 1e-300):
                breakdown = True
                break
            if est <= cfg.tol or total_iters >= maxit:
                break
            Q[k + 1] = w / h_next
        R = H[: k_used + 1, :k_used]
        for i in range(k_used):
            c, s = cs[i], sn[i]
            R[i, i:], R[i + 1, i:] = (c * R[i, i:] + s * R[i + 1, i:],
                                      -s * R[i, i:] + c * R[i + 1, i:])
        y = back_substitute(R[:k_used], g[:k_used])
        x = x + Q[:k_used].T @ y
        if breakdown or total_iters >= maxit:
            return x, np.asarray(history)


def record_workspace(monkeypatch, fill=None):
    """Patch ``np.empty`` to record the shape of, and a weak reference to,
    every array it allocates and, with ``fill``, to overwrite it; returns
    the two lists ``(shapes, refs)``."""
    shapes, refs = [], []
    empty = np.empty

    def recording_empty(*args, **kwargs):
        array = empty(*args, **kwargs)
        shapes.append(array.shape)
        refs.append(weakref.ref(array))
        if fill is not None:
            array.fill(fill)
        return array

    monkeypatch.setattr(np, "empty", recording_empty)
    return shapes, refs


def workspace_shapes(n, m):
    """What ``gmres_solve`` allocates with ``np.empty`` once per solve: the
    basis, the packed Hessenberg, ``cs``, ``sn`` and ``omega``."""
    return [(m + 1, n), (m + m * (m + 1) // 2,), (m,), (m,), (m + 1,)]


def layered_system(nx, anna):
    """Unpinned monolithic system on an nx x nx layered field, contrast 1e5."""
    grid = build_grid(nx, nx)
    kstar = normalize(generate_contrast_field(grid, 1e5, 1e5, "layered", 0))
    system = assemble_monolithic(grid, kstar, anna, BoundaryData(1.0, 0.0))
    return system.matrix, system.rhs


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

    @pytest.mark.parametrize("restart, maxit, iterations, history_rtol, x_rtol", [
        # full GMRES on the singular (unpinned) saddle point: the rotations
        # formed from omega @ h round differently from those of the rotated
        # column, and the gaps grow to ~1e-11 over 176 steps
        (None, 208, 176, 1e-10, 1e-10),
        # GMRES(7) stagnates here; both stop at maxit after 43 cycles
        (7, 300, 300, 1e-14, 1e-12),
    ])
    def test_matches_per_column_givens_reference(self, restart, maxit, iterations,
                                                 history_rtol, x_rtol):
        A, b = layered_system(8, 1e-3)
        x, report = gmres_solve(A, b, SolverConfig(tol=1e-6, maxit=maxit, restart=restart))
        x_ref, history_ref = cgs2_givens_reference(A, b, 1e-6, maxit, restart or maxit)
        assert report.iterations == len(history_ref) - 1 == iterations
        assert report.cycles == {None: 1, 7: 43}[restart]
        assert not report.breakdown
        assert report.final_relres == np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        np.testing.assert_allclose(report.residual_history, history_ref, rtol=history_rtol, atol=0)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=x_rtol * np.abs(x_ref).max())

    @pytest.mark.parametrize("system, cfg, iterations, cycles, breakdown", [
        # 300 = 42 * 7 + 6: the last cycle is one step short
        (lambda: layered_system(8, 1e-3), SolverConfig(tol=1e-6, maxit=300, restart=7),
         300, 43, False),
        # b - A b / 2 = (-1/2, 0) spans an invariant subspace of A; tol is out
        # of reach, so only the breakdown in the second cycle stops the solve
        (lambda: (np.array([[1.0, 1.0], [0.0, 2.0]]), np.array([-0.5, 0.5])),
         SolverConfig(tol=1e-20, maxit=50, restart=1), 2, 2, True),
        (lambda: layered_system(8, 1e-3), SolverConfig(tol=1e-6, maxit=208), 176, 1, False),
    ], ids=["short-last-cycle", "later-breakdown", "full"])
    def test_one_workspace_matches_per_cycle_reference(self, system, cfg, iterations, cycles,
                                                        breakdown, monkeypatch):
        # the reused basis and packed store give the same bits as a fresh
        # dense pair per cycle; the workspace, the packed store included, is
        # filled with NaN when allocated, so an entry the current cycle has
        # not written (it is never cleared) would show as NaN
        A, b = system()
        x_ref, history_ref = per_cycle_gmres_reference(A, b, cfg)
        shapes, _ = record_workspace(monkeypatch, fill=np.nan)
        x, report = gmres_solve(A, b, cfg)
        assert report.iterations == iterations
        assert (report.cycles, report.breakdown) == (cycles, breakdown)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(report.residual_history, history_ref)
        m = min(cfg.restart or cfg.maxit, cfg.maxit, b.size)
        assert shapes == workspace_shapes(b.size, m)

    def test_packed_store_writes_only_the_columns_of_the_steps_taken(self, monkeypatch):
        # column j of the packed Hessenberg holds rows 0 .. j + 1 from
        # j(j + 3)/2 on, so 176 steps write exactly the store's leading
        # 176 * 179 / 2 entries and leave the pages past them untouched
        A, b = layered_system(8, 1e-3)
        shapes, _ = record_workspace(monkeypatch, fill=np.nan)
        kept, recording_empty = [], np.empty

        def keeping_empty(*args, **kwargs):
            kept.append(recording_empty(*args, **kwargs))
            return kept[-1]

        monkeypatch.setattr(np, "empty", keeping_empty)
        _, report = gmres_solve(A, b, SolverConfig(tol=1e-6, maxit=208))
        assert (report.iterations, report.cycles) == (176, 1)
        assert shapes == workspace_shapes(208, 208)
        store = kept[1]
        written = 176 * 179 // 2
        assert not np.isnan(store[:written]).any()
        assert np.isnan(store[written:]).all()

    def test_restarted_solve_allocates_one_workspace(self, monkeypatch):
        # GMRES(50) stagnates here and runs six cycles to maxit; a basis
        # allocated per cycle would be held twice while the next is made
        A, b = layered_system(8, 1e-3)
        n, m = b.size, 50
        cfg = SolverConfig(tol=1e-6, maxit=300, restart=m)
        shapes, _ = record_workspace(monkeypatch)
        tracemalloc.start()
        try:
            _, report = gmres_solve(A, b, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == 300
        assert report.cycles == 6
        assert shapes == workspace_shapes(n, m)
        assert report.workspace_bytes == ((m + 1) * n + m * (m + 1) // 2 + m) * 8
        assert peak < 1.5 * report.workspace_bytes

    def test_residual_and_corrections_live_in_the_basis(self):
        # beyond its workspace GMRES(50) holds x and one product, ~2.2
        # n-vectors: the cycle residual is formed in Q[0], both CGS2
        # corrections in Q[k + 1] and the cycle's update in the last
        # product, which goes before the next is allocated.  A fresh
        # residual, correction or update, a second live product, or a copy
        # of Qk made because out=Q[k + 1] were judged to overlap it would
        # show here.  Two full cycles and a third that stops at maxit mid-way
        A, b = layered_system(64, 1e3)
        n = b.size
        tracemalloc.start()
        try:
            _, report = gmres_solve(A, b, SolverConfig(tol=1e-6, maxit=120, restart=50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.iterations, report.cycles) == (120, 3)
        assert peak <= report.workspace_bytes + 2.5 * 8 * n

    @pytest.mark.parametrize("system, cfg, breakdown", [
        (lambda: layered_system(8, 1e-3), SolverConfig(tol=1e-6, maxit=208), False),
        (lambda: (np.array([[1.0, 1.0], [0.0, 2.0]]), np.array([-0.5, 0.5])),
         SolverConfig(tol=1e-20, maxit=50, restart=1), True),
    ], ids=["converged", "breakdown"])
    def test_workspace_is_dead_when_the_heap_is_released(self, system, cfg, breakdown,
                                                         monkeypatch):
        # a heap block freed by one solve stays resident under what the
        # process allocates next; the heap is released once per solve, after
        # the last view of the basis and of the packed store has gone
        A, b = system()
        shapes, refs = record_workspace(monkeypatch)
        released = []
        monkeypatch.setattr(brinkman2d.solvers, "release_freed_heap",
                            lambda: released.append([ref() for ref in refs]))
        _, report = gmres_solve(A, b, cfg)
        assert report.breakdown == breakdown
        assert report.converged != breakdown
        assert shapes == workspace_shapes(b.size, min(cfg.restart or cfg.maxit, b.size))
        assert released == [[None] * len(shapes)]

    @pytest.mark.parametrize("advice", [True, False])
    def test_basis_and_store_are_allocated_without_hugepage_advice(self, advice, monkeypatch):
        # numpy advises transparent huge pages for arrays of 4 MiB and more,
        # so the basis and the store would sit on 2 MB pages in some solves
        # and not in others; the advice is off around exactly those two
        # allocations, and whatever was set before is set again after
        A, b = layered_system(8, 1e-3)
        m = 50
        events, state = [], [advice]
        empty = np.empty

        def set_advice(enabled):
            events.append(("advice", enabled))
            previous, state[0] = state[0], enabled
            return previous

        def recording_empty(*args, **kwargs):
            array = empty(*args, **kwargs)
            events.append(("empty", array.shape))
            return array

        monkeypatch.setattr(brinkman2d.solvers, "_set_madvise_hugepage", set_advice)
        monkeypatch.setattr(np, "empty", recording_empty)
        gmres_solve(A, b, SolverConfig(tol=1e-6, maxit=100, restart=m))
        q_shape, h_shape, *rest = workspace_shapes(b.size, m)
        assert events == [("advice", False), ("empty", q_shape), ("empty", h_shape),
                          ("advice", advice)] + [("empty", shape) for shape in rest]
        assert state == [advice]

    def test_hugepage_advice_is_restored_when_the_allocation_fails(self, monkeypatch):
        A, b = layered_system(8, 1e-3)
        state = [True]

        def set_advice(enabled):
            previous, state[0] = state[0], enabled
            return previous

        def failing_empty(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        monkeypatch.setattr(brinkman2d.solvers, "_set_madvise_hugepage", set_advice)
        monkeypatch.setattr(np, "empty", failing_empty)
        with pytest.raises(MemoryError):
            gmres_solve(A, b, SolverConfig(tol=1e-6, maxit=100, restart=50))
        assert state == [True]

    def test_solve_runs_without_numpys_hugepage_switch(self, monkeypatch):
        # the switch is private numpy API; without it the workspace takes
        # numpy's default advice and the arithmetic is the same
        A, b = layered_system(8, 1e-3)
        cfg = SolverConfig(tol=1e-6, maxit=100, restart=50)
        x_ref, report_ref = gmres_solve(A, b, cfg)
        monkeypatch.setattr(brinkman2d.solvers, "_set_madvise_hugepage", None)
        shapes, _ = record_workspace(monkeypatch)
        x, report = gmres_solve(A, b, cfg)
        assert shapes == workspace_shapes(b.size, 50)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(report.residual_history, report_ref.residual_history)

    def test_workspace_bytes_on_canonical_size(self, monkeypatch):
        # full GMRES on the 20x20 grid: a 1241 x 1240 basis and a packed
        # Hessenberg of 1240 + 1240 * 1241 / 2 doubles; the memory guard asks
        # for exactly these bytes
        A, b = layered_system(20, 1e5)
        need = (1241 * 1240 + 1240 * 1241 // 2 + 1240) * 8
        assert need == 18_476_000
        monkeypatch.setattr(brinkman2d.solvers, "_physical_memory_bytes", lambda: need)
        _, report = gmres_solve(A, b, SolverConfig(tol=1e-6))
        assert b.size == 1240
        assert report.converged
        assert report.workspace_bytes == need
        monkeypatch.setattr(brinkman2d.solvers, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ConfigError, match="n = 1240 unknowns") as info:
            gmres_solve(A, b, SolverConfig(tol=1e-6))
        assert info.value.key == "solver.restart"

    def test_guard_admits_what_only_a_dense_hessenberg_would_not_fit(self, monkeypatch):
        # at m = n = 20 the packed workspace needs 5200 B, a dense (m+1) x m
        # Hessenberg would have made it 6720 B
        n = 20
        packed = ((n + 1) * n + n * (n + 1) // 2 + n) * 8
        dense = ((n + 1) * n + (n + 1) * n) * 8
        assert (packed, dense) == (5200, 6720)
        monkeypatch.setattr(brinkman2d.solvers, "_physical_memory_bytes",
                            lambda: (packed + dense) // 2)
        x, report = gmres_solve(spd_tridiagonal(n), np.ones(n), SolverConfig(tol=1e-12))
        assert report.converged
        assert report.workspace_bytes == packed

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix", [np.zeros((1, 1)), np.array([[0.0, 1.0], [0.0, 0.0]])])
    def test_stalled_iteration_returns_zero(self, matrix):
        # A q0 = 0: the first Hessenberg column is zero, its rotation is a
        # swap that keeps the residual estimate, and the least-squares
        # fallback gives the update y = 0
        b = np.zeros(matrix.shape[0])
        b[0] = 1.0
        x, report = gmres_solve(matrix, b)
        assert np.all(x == 0.0)
        assert report.iterations == 1
        assert not report.converged
        assert report.final_relres == 1.0
        assert list(report.residual_history) == [1.0, 1.0]  # the estimate is the true one

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("second", [None, 0, 2], ids=["e_n", "e_n+e_1", "e_n+e_3"])
    def test_zero_diagonal_after_several_steps(self, second, monkeypatch):
        # the nilpotent shift S e_j = e_{j-1} walks the Krylov space from e_n
        # down to e_1, and S e_1 = 0: the last rotated diagonal entry is zero
        # after n - 1 regular steps, so the solve takes the least-squares
        # fallback, whose minimum-norm update must match the dense one.  With
        # e_n + e_3 that entry comes out as 5.6e-17, not 0; back substitution
        # on it returned x[0] = 2.5e16, so it must count as zero too
        n = 6
        A = np.diag(np.ones(n - 1), 1)
        b = np.zeros(n)
        b[-1] = 1.0
        if second is not None:
            b[second] = 1.0
        lstsq_shapes = []
        lstsq = np.linalg.lstsq

        def recording_lstsq(R, g, rcond):
            lstsq_shapes.append(R.shape)
            return lstsq(R, g, rcond)

        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        x, report = gmres_solve(A, b)
        x_ref = lstsq(A, b, rcond=None)[0]
        assert lstsq_shapes == [(n, n)]
        assert (report.iterations, report.cycles, report.breakdown) == (n, 1, True)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-15)
        assert report.final_relres == pytest.approx(
            np.linalg.norm(b - A @ x_ref) / np.linalg.norm(b), rel=1e-15)
        assert report.residual_history[-1] == pytest.approx(report.final_relres, rel=1e-15)
        assert not report.converged

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
        assert report.workspace_bytes == 0

    def test_rhs_whose_norm_underflows_is_solved(self):
        # ||b||^2 underflows to 0 for a nonzero b, which is not a zero rhs
        x, report = gmres_solve(sp.eye(3, format="csr"), [1e-200, 0.0, 0.0])
        assert np.array_equal(x, [1e-200, 0.0, 0.0])
        assert report.iterations == 1
        assert report.converged

    @pytest.mark.parametrize("rhs, exponent", [
        ("layered", -1), ("layered", -520), ("layered", -600),
        ("norm-over-1-max-under-half", -600), ("norm-under-1-max-over-half", -600),
    ], ids=["-1", "-520", "-600", "norm-over-1-max-under-half", "norm-under-1-max-over-half"])
    def test_small_rhs_solved_as_a_power_of_two_multiple(self, rhs, exponent):
        # GMRES commutes with scaling b by an exact power of two: the same
        # steps and residuals, x scaled by that power.  At 2^-520 the squares
        # of the residuals near tol underflow, at 2^-600 those of b itself.
        # The last two right-hand sides sit on either side of the bound
        # max|b| < 1/2 that decides whether b itself is scaled, each with
        # ||b|| on the other side of 1.
        A, b = layered_system(6, 1.0)
        if rhs == "norm-over-1-max-under-half":
            b = np.full(b.size, 0.1)
            assert np.linalg.norm(b) >= 1.0 and np.abs(b).max() < 0.5
        elif rhs == "norm-under-1-max-over-half":
            b = np.zeros(b.size)
            b[1] = 0.75  # the momentum row of the first interior u face
            assert np.linalg.norm(b) < 1.0 and np.abs(b).max() >= 0.5
        cfg = SolverConfig(tol=1e-8)
        x_ref, ref = gmres_solve(A, b, cfg)
        x, report = gmres_solve(A, np.ldexp(b, exponent), cfg)
        assert np.array_equal(x, np.ldexp(x_ref, exponent))
        assert report.iterations == ref.iterations
        assert report.final_relres == ref.final_relres
        assert np.array_equal(report.residual_history, ref.residual_history)

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
        assert report.breakdown
        assert report.cycles == 1
        np.testing.assert_allclose(x, [2.0, 0, 0, 0, 0], atol=1e-14)

    def test_singular_but_compatible_system(self):
        grid = build_grid(8, 8)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData(1.0, 0.0)
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix, rhs, quantity", [
        (np.eye(2), np.array([1e200, 1e200]), r"\|\|b\|\|"),
        (sp.diags([1e200, 1e200], format="csr"), np.ones(2), r"\|\|A q\|\| .* iteration 1"),
        (np.diag([1e200, 1e200]), np.ones(2), r"\|\|A q\|\| .* iteration 1"),
    ], ids=["rhs", "sparse-product", "dense-product"])
    def test_overflowing_norm_raises(self, matrix, rhs, quantity):
        # finite entries whose squares overflow: raise rather than return NaN
        with pytest.raises(NumericOverflowError, match=quantity):
            gmres_solve(matrix, rhs)

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
        with pytest.raises(ConfigError, match="n = 200000 unknowns") as info:
            gmres_solve(matrix, rhs)
        assert info.value.key == "solver.restart"
        assert str(info.value).startswith("config key 'solver.restart': m = ")

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
        # no empty row or column: SuperLU itself finds the zero pivot
        with pytest.raises(SingularMatrixError,
                           match=r"^sparse LU failed: Factor is exactly singular$"):
            direct_solve(np.ones((2, 2)), np.ones(2))

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

    @pytest.mark.parametrize("matrix, rhs", [
        (sp.csr_matrix([[1e-310]]), [1e10]),
        (np.diag([1e-300, 1.0]), [1e300, 1.0]),
    ], ids=["subnormal-pivot", "dense-diagonal"])
    def test_overflowing_solution_raises_unwarned(self, matrix, rhs):
        # finite inputs, nonsingular factor, a solution past double range:
        # no RuntimeWarning from the refinement step, and no "singular" cause
        with pytest.raises(NumericOverflowError, match="the direct solution overflows"):
            direct_solve(matrix, rhs)

    def test_csc_input_with_explicit_zeros_left_unchanged(self):
        A = sp.csc_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]))
        A.data[A.data == 1.0] = 0.0  # explicit zeros, kept in the structure
        nnz, data = A.nnz, A.data.copy()
        x = direct_solve(A, np.ones(3))
        np.testing.assert_allclose(x, [0.5, 1.0 / 3.0, 0.25], rtol=1e-15)
        assert A.nnz == nnz
        assert np.array_equal(A.data, data)

    def test_factors_once_through_the_sparse_lu_helper(self, splu_calls):
        direct_solve(spd_tridiagonal(20), np.ones(20))
        assert splu_calls == [("_sparse_lu", {"relax": 1, "panel_size": 1})]

    def test_manufactured_64_factor_fill(self):
        # without relaxed supernodes the factor stores 1,650,877 entries;
        # SuperLU's defaults pad it to 1,753,897
        grid = build_grid(64, 64)
        system = assemble_monolithic(grid, uniform_kstar(grid), 1.0, BoundaryData(0.0, 0.0),
                                     forcing=mms_forcing(grid, 1.0), pin_pressure=True)
        assert _sparse_lu(system.matrix).nnz <= 1_660_000

    def test_pinned_uniform_flow_recovered_exactly(self):
        grid = build_grid(6, 5)
        system = assemble_monolithic(
            grid, uniform_kstar(grid), 1.0, BoundaryData(1.0, 0.0),
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


@pytest.mark.parametrize("tol", [1.0, 2.0, np.inf, np.nan])
def test_tol_must_be_finite_and_below_one(tol):
    # the zero initial guess has relres 1, so tol >= 1 would "converge" at once
    with pytest.raises(ConfigError, match="must be in \\(0, 1\\)") as info:
        SolverConfig(tol=tol)
    assert info.value.key == "solver.tol"


class TestReleaseFreedHeap:
    def test_trims_the_whole_heap(self, monkeypatch):
        calls = []
        libc = types.SimpleNamespace(malloc_trim=lambda pad: calls.append(pad))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert release_freed_heap() is None
        assert calls == [0]
        assert libc.malloc_trim.argtypes == [ctypes.c_size_t]

    def test_no_op_without_malloc_trim(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert release_freed_heap() is None

    def test_no_op_when_libc_cannot_be_loaded(self, monkeypatch):
        def fail(name):
            raise OSError("no libc")

        monkeypatch.setattr(ctypes, "CDLL", fail)
        assert release_freed_heap() is None
