"""Linear solvers for the monolithic system.

The primary path is an in-house restarted GMRES (Arnoldi with classical
Gram-Schmidt run twice (CGS2) as BLAS matrix-vector products,
Givens-rotation least squares); the reference path is a
sparse LU factorization (SuperLU) used as the oracle in verification
runs.  Full GMRES (restart = maxit) is the default, matching the
replication setting of the regime study; restarting is exposed for
experimentation.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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
    GMRES).  The convergence test is ||b - M x||_2 / ||b||_2 <= tol.
    """

    tol: float = 1e-6
    maxit: int | None = None
    restart: int | None = None
    preconditioner: str = "none"

    def __post_init__(self):
        if not self.tol > 0.0:
            raise SettingError("tol", f"must be positive, got {self.tol}")
        if self.maxit is not None and self.maxit < 1:
            raise SettingError("maxit", f"must be >= 1, got {self.maxit}")
        if self.restart is not None and self.restart < 1:
            raise SettingError("restart", f"must be >= 1, got {self.restart}")
        if self.preconditioner not in ("none", "jacobi"):
            raise SettingError(
                "preconditioner", f"must be 'none' or 'jacobi', got {self.preconditioner!r}")


@dataclass
class SolveReport:
    """Convergence record of one iterative solve.

    residual_history holds the initial relative residual followed by one
    entry per inner iteration; with a Jacobi preconditioner all residuals
    are those of the preconditioned system.
    """

    iterations: int
    converged: bool
    final_relres: float
    residual_history: np.ndarray = field(repr=False)
    wall_time: float = 0.0


def apply_jacobi(matrix) -> np.ndarray:
    """Inverse-diagonal scaling; rows with a zero diagonal keep unit scale."""
    if sp.issparse(matrix):
        diag = np.asarray(matrix.diagonal(), dtype=float)
    else:
        diag = np.diag(np.asarray(matrix, dtype=float)).copy()
    scale = np.ones_like(diag)
    nz = diag != 0.0
    scale[nz] = 1.0 / diag[nz]
    return scale


def _linear_system(matrix, rhs):
    """Validated ``(A, b)``: a square CSR or dense matrix and a matching
    rhs, both free of NaN and inf."""
    if sp.issparse(matrix):
        A = matrix.tocsr()
        values = A.data
    else:
        A = values = np.asarray(matrix, dtype=float)
        if A.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    b = np.asarray(rhs, dtype=float).ravel()
    if b.size != A.shape[0]:
        raise ValueError(f"rhs has length {b.size}, matrix is {A.shape[0]}x{A.shape[0]}")
    if not np.isfinite(values).all():
        raise ValueError("matrix has NaN or inf entries")
    if not np.isfinite(b).all():
        raise ValueError("rhs has NaN or inf entries")
    return A, b


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_basis_fits(n: int, m: int) -> None:
    """Refuse a GMRES(m) cycle whose basis ``Q`` and Hessenberg ``H`` exceed
    physical memory, before either is allocated."""
    need = (m + 1) * n * 8 + (m + 1) * m * 8
    available = _physical_memory_bytes()
    if need > available:
        raise SettingError(
            "restart",
            f"m = {m} on n = {n} unknowns needs {need / 2**30:.1f} GiB for the Krylov basis, "
            f"more than the {available / 2**30:.1f} GiB of physical memory; "
            "set solver.restart lower",
        )


def gmres_solve(matrix, rhs, config: SolverConfig | None = None):
    """Solve M x = rhs by restarted GMRES from a zero initial guess.

    Returns ``(x, SolveReport)``.  Arnoldi breakdown (exact solution in
    the current subspace) terminates the iteration with the current
    iterate; hitting maxit returns the best iterate with
    ``converged=False``.  The result is deterministic for fixed inputs.
    Raises :class:`SettingError` on ``restart`` when one cycle's Krylov
    basis cannot fit in physical memory (the default ``maxit = n`` asks
    for an ``(n+1) x n`` basis).
    """
    cfg = config or SolverConfig()
    A, b = _linear_system(matrix, rhs)
    n = A.shape[0]

    maxit = cfg.maxit if cfg.maxit is not None else n
    restart = cfg.restart if cfg.restart is not None else maxit
    restart = min(restart, maxit)
    _check_basis_fits(n, min(restart, n))

    if cfg.preconditioner == "jacobi":
        scale = apply_jacobi(A)
        b_eff = scale * b

        def op(v):
            return scale * (A @ v)
    else:
        b_eff = b

        def op(v):
            return A @ v

    t0 = time.perf_counter()
    b_norm = float(np.linalg.norm(b_eff))
    if b_norm == 0.0:
        x = np.zeros(n)
        return x, SolveReport(0, True, 0.0, np.array([0.0]), time.perf_counter() - t0)

    x = np.zeros(n)
    history = [1.0]
    total_iters = 0
    final_relres = 1.0
    breakdown = False

    while True:
        r = b_eff - op(x)
        r_norm = float(np.linalg.norm(r))
        final_relres = r_norm / b_norm
        if final_relres <= cfg.tol or total_iters >= maxit or breakdown or r_norm == 0.0:
            break

        m = min(restart, maxit - total_iters, n)
        Q = np.empty((m + 1, n))
        H = np.zeros((m + 1, m))
        cs: list[float] = []
        sn: list[float] = []
        g = [r_norm]
        Q[0] = r / r_norm

        k_used = 0
        for k in range(m):
            w = op(Q[k])
            w_scale = float(np.linalg.norm(w))
            Qk = Q[: k + 1]
            h = Qk @ w  # classical Gram-Schmidt, run twice (CGS2)
            w -= h @ Qk
            h2 = Qk @ w
            w -= h2 @ Qk
            h += h2
            h_next = float(np.linalg.norm(w))

            col = h.tolist()
            col.append(h_next)
            for i in range(k):  # earlier Givens rotations, in order
                t = cs[i] * col[i] + sn[i] * col[i + 1]
                col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1]
                col[i] = t
            denom = float(np.hypot(col[k], col[k + 1]))
            if denom == 0.0:
                c, s = 1.0, 0.0
            else:
                c, s = col[k] / denom, col[k + 1] / denom
            cs.append(c)
            sn.append(s)
            col[k] = c * col[k] + s * col[k + 1]
            H[: k + 1, k] = col[: k + 1]
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
            Q[k + 1] = w / h_next

        y = _solve_upper(H[:k_used, :k_used], np.array(g[:k_used]))
        x = x + Q[:k_used].T @ y

        if breakdown or total_iters >= maxit:
            r = b_eff - op(x)
            final_relres = float(np.linalg.norm(r)) / b_norm
            break

    converged = final_relres <= cfg.tol
    report = SolveReport(
        iterations=total_iters,
        converged=converged,
        final_relres=final_relres,
        residual_history=np.asarray(history),
        wall_time=time.perf_counter() - t0,
    )
    return x, report


def _solve_upper(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    if R.size == 0:
        return np.zeros(0)
    if np.any(np.diag(R) == 0.0):
        # stalled iteration on a singular operator: minimum-norm fallback
        return np.linalg.lstsq(R, g, rcond=None)[0]
    return scipy.linalg.solve_triangular(R, g, lower=False)


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
