"""Linear solvers for the monolithic system.

The primary path is an in-house restarted GMRES: Arnoldi with classical
Gram-Schmidt run twice (CGS2) as BLAS matrix-vector products, and
Givens-rotation least squares.  Each step keeps only the last row of
the accumulated rotation factor, which gives the new rotation from one
dot product with the raw Hessenberg column; the cycle's rotations are
applied to the Hessenberg once, row by row, before the triangular
solve.  The basis and the Hessenberg are allocated once per solve and
reused by every restart cycle.  The reference path is a sparse LU
factorization (SuperLU) used as the oracle in verification runs.  Full
GMRES (restart = maxit) is the default, matching the replication
setting of the regime study; restarting is exposed for experimentation.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dtrtrs

from ._util import checked_square_matrix


class SingularMatrixError(RuntimeError):
    """Direct factorization hit an exactly singular pivot."""


class SettingError(ValueError):
    """Invalid or unrunnable :class:`SolverConfig` value; ``field`` names the setting."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field} {message}")
        self.field = field


@dataclass
class SolverConfig:
    """Iterative-solver settings.

    maxit defaults to the system size, restart defaults to maxit (full
    GMRES).  The convergence test is ||b - M x||_2 / ||b||_2 <= tol, so
    tol must lie in (0, 1): the zero initial guess already meets tol >= 1.
    """

    tol: float = 1e-6
    maxit: int | None = None
    restart: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise SettingError("tol", f"must be in (0, 1), got {self.tol}")
        if self.maxit is not None and self.maxit < 1:
            raise SettingError("maxit", f"must be >= 1, got {self.maxit}")
        if self.restart is not None and self.restart < 1:
            raise SettingError("restart", f"must be >= 1, got {self.restart}")


@dataclass
class SolveReport:
    """Convergence record of one iterative solve.

    residual_history holds the initial relative residual followed by one
    entry per inner iteration.  final_relres is ||b - M x||_2 / ||b||_2 of
    the returned iterate, and converged means it meets tol.  true_relres
    equals final_relres: GMRES runs unpreconditioned, so the last residual
    it takes is already the true one.  workspace_bytes is the size of the
    Krylov basis plus the Hessenberg matrix the solve allocated (0 for a
    zero rhs).
    """

    iterations: int
    converged: bool
    final_relres: float
    true_relres: float
    residual_history: np.ndarray = field(repr=False)
    wall_time: float = 0.0
    workspace_bytes: int = 0


def _linear_system(matrix, rhs):
    """Validated ``(A, b)``: a square CSR or dense matrix and a matching
    rhs, both free of NaN and inf."""
    A = checked_square_matrix(matrix)
    b = np.asarray(rhs, dtype=float).ravel()
    if b.size != A.shape[0]:
        raise ValueError(f"rhs has length {b.size}, matrix is {A.shape[0]}x{A.shape[0]}")
    if not np.isfinite(b).all():
        raise ValueError("rhs has NaN or inf entries")
    return A, b


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_basis_fits(n: int, m: int) -> None:
    """Refuse a GMRES(m) workspace whose basis ``Q`` and Hessenberg ``H``
    exceed physical memory, before either is allocated."""
    need = (m + 1) * n * 8 + (m + 1) * m * 8
    available = _physical_memory_bytes()
    if need > available:
        raise SettingError(
            "restart",
            f"m = {m} on n = {n} unknowns needs {need / 2**30:.1f} GiB for the Krylov basis and "
            f"Hessenberg, more than the {available / 2**30:.1f} GiB of physical memory; "
            "set solver.restart lower",
        )


def gmres_solve(matrix, rhs, config: SolverConfig | None = None):
    """Solve M x = rhs by restarted GMRES from a zero initial guess.

    Returns ``(x, SolveReport)``.  Arnoldi breakdown (exact solution in
    the current subspace) terminates the iteration with the current
    iterate; hitting maxit returns the best iterate with
    ``converged=False``.  The result is deterministic for fixed inputs.
    Raises :class:`SettingError` on ``restart`` when the Krylov basis and
    Hessenberg cannot fit in physical memory (the default ``maxit = n``
    asks for an ``(n+1) x n`` basis).  ``SolveReport.workspace_bytes``
    gives their size.
    """
    cfg = config or SolverConfig()
    A, b = _linear_system(matrix, rhs)
    n = A.shape[0]

    maxit = cfg.maxit if cfg.maxit is not None else n
    restart = cfg.restart if cfg.restart is not None else maxit
    m_max = min(restart, maxit, n)
    _check_basis_fits(n, m_max)

    t0 = time.perf_counter()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        x = np.zeros(n)
        return x, SolveReport(iterations=0, converged=True, final_relres=0.0, true_relres=0.0,
                              residual_history=np.array([0.0]),
                              wall_time=time.perf_counter() - t0)

    # One workspace per solve: every cycle, a shorter last one included,
    # works in the leading rows and columns of Q and H.  H is not re-zeroed
    # between cycles: the rotation pass and the triangular solve read only
    # entries (i, j) with i <= j + 1 of the cycle's first k_used columns,
    # and the cycle writes all of them before they are read.  Entries below
    # the subdiagonal are never written, but pages fault in whole: the
    # canonical solve at Da = 1e-5 has 11.5 of its 11.7 MiB of H resident
    # (numpy advises 2 MiB huge pages for arrays of 4 MiB or more), 8.8 MiB
    # with NUMPY_MADVISE_HUGEPAGE=0.
    Q = np.empty((m_max + 1, n))
    H = np.zeros((m_max + 1, m_max))
    cs, sn = np.empty(m_max), np.empty(m_max)
    omega = np.empty(m_max + 1)  # last row of the accumulated rotation factor
    x = np.zeros(n)
    history = [1.0]
    total_iters = 0
    final_relres = 1.0
    breakdown = False

    while True:
        r = b - A @ x
        r_norm = float(np.linalg.norm(r))
        final_relres = r_norm / b_norm
        if final_relres <= cfg.tol or total_iters >= maxit or breakdown or r_norm == 0.0:
            break

        m = min(m_max, maxit - total_iters)
        omega[0] = 1.0
        g = [r_norm]
        np.divide(r, r_norm, out=Q[0])

        k_used = 0
        for k in range(m):
            w = A @ Q[k]
            w_scale = float(np.linalg.norm(w))
            Qk = Q[: k + 1]
            h = Qk @ w  # classical Gram-Schmidt, run twice (CGS2)
            w -= h @ Qk
            h2 = Qk @ w
            w -= h2 @ Qk
            h += h2
            h_next = float(np.linalg.norm(w))
            H[: k + 1, k] = h
            H[k + 1, k] = h_next

            # row k of the column rotated by all earlier rotations is omega @ h
            a = float(omega[: k + 1] @ h)
            denom = float(np.hypot(a, h_next))
            if denom == 0.0:  # swap rotation: the estimate stays |g[k]|
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

            if h_next <= 1e-14 * max(w_scale, 1e-300):  # Arnoldi breakdown
                breakdown = True
                break
            if est <= cfg.tol or total_iters >= maxit:
                break
            np.divide(w, h_next, out=Q[k + 1])

        R = H[: k_used + 1, :k_used]
        for i in range(k_used):  # the cycle's rotations, once, row by row
            c, s = cs[i], sn[i]
            R[i, i:], R[i + 1, i:] = (c * R[i, i:] + s * R[i + 1, i:],
                                      -s * R[i, i:] + c * R[i + 1, i:])
        y = _solve_upper(H[:k_used], np.array(g[:k_used]))
        x = x + Q[:k_used].T @ y

        if breakdown or total_iters >= maxit:
            r = b - A @ x
            final_relres = float(np.linalg.norm(r)) / b_norm
            break

    report = SolveReport(
        iterations=total_iters,
        converged=final_relres <= cfg.tol,
        final_relres=final_relres,
        true_relres=final_relres,  # the last residual taken is already b - A x
        residual_history=np.asarray(history),
        wall_time=time.perf_counter() - t0,
        workspace_bytes=Q.nbytes + H.nbytes,
    )
    return x, report


def _solve_upper(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve ``R y = g`` for the upper triangle ``R`` of ``rows[:, :k]``,
    ``k = g.size``, where ``rows`` is C-contiguous.

    ``rows.T`` is Fortran-ordered with ``lda = rows.shape[1]`` and holds
    ``R^T`` in its lower triangle, so LAPACK ``dtrtrs`` (lower, transposed:
    what ``solve_triangular`` calls on a row-major triangle) reads it in
    place, without the copy ``solve_triangular`` makes of a strided view.
    """
    R = rows[:, : g.size]
    if np.any(np.diag(R) == 0.0):
        # stalled iteration on a singular operator: minimum-norm fallback;
        # triu drops the rounding left below the diagonal by the rotations
        return np.linalg.lstsq(np.triu(R), g, rcond=None)[0]
    y, _ = dtrtrs(rows.T, g, lower=1, trans=1)
    return y


def direct_solve(matrix, rhs) -> np.ndarray:
    """Sparse LU (SuperLU, partial pivoting) reference solve with one step
    of iterative refinement.

    Raises :class:`SingularMatrixError` on a structurally empty row or
    column, naming its index, or on an exactly singular pivot (use a
    pinned monolithic system).
    """
    A, b = _linear_system(matrix, rhs)
    csc = sp.csc_matrix(A, copy=True)  # eliminate_zeros works in place
    csc.eliminate_zeros()
    row_counts = np.bincount(csc.indices, minlength=csc.shape[0])
    empty = np.flatnonzero((row_counts == 0) | (np.diff(csc.indptr) == 0))
    if empty.size:
        raise SingularMatrixError(f"empty row or column at index {int(empty[0])}")
    try:
        factor = spla.splu(csc)
        x = factor.solve(b)
        # one step of iterative refinement recovers the forward accuracy
        # lost on badly conditioned saddle points
        x += factor.solve(b - csc @ x)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("sparse LU produced non-finite solution (singular pivot)")
    return x
