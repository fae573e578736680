"""Linear solvers for the monolithic system.

The primary path is an in-house restarted GMRES: Arnoldi with classical
Gram-Schmidt run twice (CGS2) as BLAS matrix-vector products, and
Givens-rotation least squares.  Each step keeps only the last row of
the accumulated rotation factor, which gives the new rotation from one
dot product with the raw Hessenberg column; the cycle's rotations are
applied to the Hessenberg once, row by row, before the triangular
solve.  The reference path is a sparse LU factorization (SuperLU) used
as the oracle in verification runs.  Full GMRES (restart = maxit) is
the default, matching the replication setting of the regime study;
restarting is exposed for experimentation.
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
    entry per inner iteration; with a Jacobi preconditioner these and
    final_relres are residuals of the preconditioned system.  true_relres
    is ||b - M x||_2 / ||b||_2 of the returned iterate; without a
    preconditioner it is final_relres.  converged requires both to meet
    tol, so a preconditioned estimate cannot hide a large true residual.
    """

    iterations: int
    converged: bool
    final_relres: float
    true_relres: float
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
        return x, SolveReport(iterations=0, converged=True, final_relres=0.0, true_relres=0.0,
                              residual_history=np.array([0.0]),
                              wall_time=time.perf_counter() - t0)

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
        cs, sn = np.empty(m), np.empty(m)
        omega = np.zeros(m + 1)  # last row of the accumulated rotation factor
        omega[0] = 1.0
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
            Q[k + 1] = w / h_next

        R = H[: k_used + 1, :k_used]
        for i in range(k_used):  # the cycle's rotations, once, row by row
            c, s = cs[i], sn[i]
            R[i, i:], R[i + 1, i:] = (c * R[i, i:] + s * R[i + 1, i:],
                                      -s * R[i, i:] + c * R[i + 1, i:])
        y = _solve_upper(R[:k_used], np.array(g[:k_used]))
        x = x + Q[:k_used].T @ y

        if breakdown or total_iters >= maxit:
            r = b_eff - op(x)
            final_relres = float(np.linalg.norm(r)) / b_norm
            break

    if cfg.preconditioner == "jacobi":
        true_relres = float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
    else:
        true_relres = final_relres  # the last residual taken is already b - A x
    report = SolveReport(
        iterations=total_iters,
        converged=final_relres <= cfg.tol and true_relres <= cfg.tol,
        final_relres=final_relres,
        true_relres=true_relres,
        residual_history=np.asarray(history),
        wall_time=time.perf_counter() - t0,
    )
    return x, report


def _solve_upper(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    if R.size == 0:
        return np.zeros(0)
    if np.any(np.diag(R) == 0.0):
        # stalled iteration on a singular operator: minimum-norm fallback;
        # triu drops the rounding left below the diagonal by the rotations
        return np.linalg.lstsq(np.triu(R), g, rcond=None)[0]
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
