"""Linear solvers for the monolithic system.

The primary path is an in-house restarted GMRES: Arnoldi with classical
Gram-Schmidt run twice (CGS2, "twice is enough") as BLAS matrix-vector
products, and Givens-rotation least squares.  Each step keeps only the
last row ``omega`` of the accumulated rotation factor, which gives the
new rotation from one dot product with the raw Hessenberg column; the
cycle's rotations are applied to the column-packed Hessenberg once, row
by row, before :func:`_solve_packed_upper` solves the triangle.  Packed
by columns, the store's written pages follow the steps taken: a cycle
of ``k`` steps writes only its leading ``k(k+3)/2`` entries.  The basis
and the Hessenberg are allocated once per solve and reused by every
restart cycle.  The cycle residual, the CGS2 corrections and the update
are formed in basis rows or in the last product (the comments of
:func:`_restarted_gmres` say where), so beyond its workspace a solve
holds only the iterate and one product.  The reference path is a sparse
LU factorization (SuperLU) used as the oracle in verification runs.
Full GMRES (restart = maxit) is the default, matching the replication
setting of the regime study; restarting is exposed for experimentation.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# scipy.sparse.linalg (SuperLU, ARPACK: ~10 MB resident) is imported by
# _sparse_lu alone, so a GMRES-only process never loads it

from ._util import ConfigError, NumericOverflowError, checked_square_matrix, release_freed_heap

try:
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:
    # private numpy API (numpy >= 2); without it the GMRES workspace takes
    # numpy's default advice, which changes its peak but not its arithmetic
    _set_madvise_hugepage = None


class SingularMatrixError(RuntimeError):
    """Direct factorization hit an exactly singular pivot."""


@dataclass
class SolverConfig:
    """Iterative-solver settings: the ``solver.*`` config block, whose key
    a :class:`ConfigError` on a bad value names.

    maxit defaults to the system size, restart defaults to maxit (full
    GMRES).  The convergence test is ||b - M x||_2 / ||b||_2 <= tol, so
    tol must lie in (0, 1): the zero initial guess already meets tol >= 1.
    """

    tol: float = 1e-6
    maxit: int | None = None
    restart: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("solver.tol", f"must be in (0, 1), got {self.tol}")
        if self.maxit is not None and self.maxit < 1:
            raise ConfigError("solver.maxit", f"must be >= 1, got {self.maxit}")
        if self.restart is not None and self.restart < 1:
            raise ConfigError("solver.restart", f"must be >= 1, got {self.restart}")


@dataclass
class SolveReport:
    """Convergence record of one iterative solve.

    residual_history holds the initial relative residual followed by the
    Givens estimate of each inner iteration, so its last entry estimates
    the residual of the returned iterate.  final_relres is the true
    ||b - M x||_2 / ||b||_2 of that iterate, and converged means it meets
    tol.  workspace_bytes is the size of the ``(m+1) x n`` Krylov basis
    plus the packed Hessenberg (``m + m(m+1)/2`` doubles) that the solve
    allocated, ``m = min(restart, maxit, n)``; 0 for a zero rhs.  cycles
    counts the restart cycles run (1 for full GMRES), and breakdown is True
    when the Arnoldi process broke down, i.e. the last Krylov space was
    invariant.
    """

    iterations: int
    converged: bool
    final_relres: float
    residual_history: np.ndarray = field(repr=False)
    wall_time: float = 0.0
    workspace_bytes: int = 0
    cycles: int = 0
    breakdown: bool = False


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
    """Refuse a GMRES(m) workspace whose basis ``Q`` and packed Hessenberg
    ``H`` exceed physical memory, before either is allocated."""
    need = ((m + 1) * n + m * (m + 1) // 2 + m) * 8
    available = _physical_memory_bytes()
    if need > available:
        raise ConfigError(
            "solver.restart",
            f"m = {m} on n = {n} unknowns needs {need / 2**30:.1f} GiB for the Krylov basis and "
            f"packed Hessenberg, more than the {available / 2**30:.1f} GiB of physical memory; "
            "set solver.restart lower",
        )


def gmres_solve(matrix, rhs, config: SolverConfig | None = None):
    """Solve M x = rhs by restarted GMRES from a zero initial guess.

    Returns ``(x, SolveReport)``.  Arnoldi breakdown (exact solution in
    the current subspace) terminates the iteration with the current
    iterate; hitting maxit returns the best iterate with
    ``converged=False``.  The result is deterministic for fixed inputs.
    Raises :class:`ConfigError` on ``solver.restart`` when the Krylov
    basis and packed Hessenberg cannot fit in physical memory, as the
    default ``maxit = n`` cannot on a large grid.  The heap they freed goes
    back to the OS on return.  Raises :class:`NumericOverflowError` when
    ``||b||`` or some ``||A q||`` overflows double precision.  A rhs whose
    largest entry is below 1/2 is solved scaled by an exact power of two,
    so that no norm underflows.
    """
    cfg = config or SolverConfig()
    A, b = _linear_system(matrix, rhs)
    n = A.shape[0]

    maxit = cfg.maxit if cfg.maxit is not None else n
    restart = cfg.restart if cfg.restart is not None else maxit
    m_max = min(restart, maxit, n)
    _check_basis_fits(n, m_max)

    t0 = time.perf_counter()
    if not b.any():
        return np.zeros(n), SolveReport(iterations=0, converged=True, final_relres=0.0,
                                        residual_history=np.array([0.0]),
                                        wall_time=time.perf_counter() - t0)
    # the squares in ||b|| and in the residual norms near tol may underflow:
    # below a largest entry of 1/2, solve for b times 2^-exponent, which every
    # step of GMRES commutes with bit for bit, and scale x back
    exponent = min(math.frexp(max(b.max(), -b.min()))[1], 0)
    if exponent < 0:
        b = np.ldexp(b, -exponent)
    with np.errstate(over="ignore"):  # an overflow raises below, unwarned
        b_norm = float(np.linalg.norm(b))
    if not math.isfinite(b_norm):
        raise NumericOverflowError("the rhs norm ||b|| overflows double precision")
    x, report = _restarted_gmres(A, b, b_norm, cfg, maxit, m_max, t0)
    release_freed_heap()  # no view of the workspace is left
    return np.ldexp(x, exponent, out=x), report


def _empty_without_hugepages(*shapes) -> list:
    """One ``np.empty`` array per shape, allocated with numpy's
    ``MADV_HUGEPAGE`` advice (given to every array of 4 MiB or more) off,
    and the previous setting restored after.  Under the kernel's
    ``madvise`` THP mode the arrays then sit on 4 KiB pages in every solve;
    with the advice, whether they get 2 MB pages, and so the solve's peak,
    depends on what the process mapped before.  The setting is numpy's, one
    per process, so another thread's array allocated meanwhile gets no
    advice either."""
    if _set_madvise_hugepage is None:
        return [np.empty(shape) for shape in shapes]
    previous = _set_madvise_hugepage(False)
    try:
        return [np.empty(shape) for shape in shapes]
    finally:
        _set_madvise_hugepage(previous)


def _restarted_gmres(A, b, b_norm: float, cfg: SolverConfig, maxit: int, m_max: int, t0: float):
    """The cycles of :func:`gmres_solve` on its workspace; ``(x, SolveReport)``."""
    n = b.size
    # One workspace per solve: every cycle, a shorter last one included,
    # works in the leading rows of Q and the leading columns of the
    # Hessenberg.  Only the upper triangle and the subdiagonal of H are ever
    # nonzero, so H lives column-packed in one 1-D store: column j holds
    # rows 0 .. j + 1 contiguously from cb[j] = j(j + 3)/2 on, and entry
    # (i, j) sits at cb[j] + i.  The store is not cleared between cycles: a
    # cycle reads only entries of its own columns, and it writes them first.
    cols = np.arange(m_max + 1)
    cb = cols * (cols + 3) // 2
    Q, H = _empty_without_hugepages((m_max + 1, n), m_max + m_max * (m_max + 1) // 2)
    cs, sn = np.empty(m_max), np.empty(m_max)
    omega = np.empty(m_max + 1)  # last row of the accumulated rotation factor
    x = np.zeros(n)
    history = [1.0]
    total_iters = 0
    cycles = 0
    breakdown = False

    while True:
        np.subtract(b, A @ x, out=Q[0])  # the residual, normalized below
        r_norm = float(np.linalg.norm(Q[0]))
        final_relres = r_norm / b_norm
        if final_relres <= cfg.tol or total_iters >= maxit or breakdown:
            break

        m = min(m_max, maxit - total_iters)
        cycles += 1
        singular = False  # a rounding-level rotated diagonal in this cycle
        omega[0] = 1.0
        g = [r_norm]
        Q[0] /= r_norm

        for k in range(m):
            w = None  # the last product goes before the next is allocated
            with np.errstate(over="ignore"):
                w = A @ Q[k]
                w_scale = float(np.linalg.norm(w))
            if not math.isfinite(w_scale):
                raise NumericOverflowError("the product norm ||A q|| overflows double "
                                           f"precision at iteration {total_iters + 1}")
            # classical Gram-Schmidt, run twice (CGS2); each correction is
            # formed in Q[k + 1], outside Qk, which the normalized w overwrites
            Qk = Q[: k + 1]
            h = Qk @ w
            w -= np.matmul(h, Qk, out=Q[k + 1])
            h2 = Qk @ w
            w -= np.matmul(h2, Qk, out=Q[k + 1])
            h += h2
            h_next = float(np.linalg.norm(w))
            column = H[cb[k]: cb[k + 1]]
            column[: k + 1] = h
            column[k + 1] = h_next

            # row k of the column rotated by all earlier rotations is omega @ h
            a = float(omega[: k + 1] @ h)
            denom = float(np.hypot(a, h_next))
            if denom <= 1e-14 * max(w_scale, 1e-300):
                # a rounding-level diagonal counts as zero (h_next then
                # meets the breakdown test too): swap rotation, so the
                # estimate stays |g[k]|, and the least-squares fallback
                c, s = 0.0, 1.0
                singular = True
            else:
                c, s = a / denom, h_next / denom
            cs[k], sn[k] = c, s
            omega[: k + 1] *= -s
            omega[k + 1] = c
            g.append(-s * g[k])
            g[k] = c * g[k]

            total_iters += 1
            est = abs(g[k + 1]) / b_norm
            history.append(est)

            if h_next <= 1e-14 * max(w_scale, 1e-300):  # Arnoldi breakdown
                breakdown = True
                break
            if est <= cfg.tol or total_iters >= maxit:
                break
            np.divide(w, h_next, out=Q[k + 1])

        k_used = k + 1
        # the cycle's rotations, once, row by row: rotated row i is final and
        # goes back to the store, rotated row i + 1 carries into rotation i + 1
        top = H[cb[:k_used]]
        for i in range(k_used):
            c, s = cs[i], sn[i]
            bottom = H[cb[i:k_used] + (i + 1)]
            top, bottom = c * top + s * bottom, -s * top + c * bottom
            H[cb[i:k_used] + i] = top
            top = bottom[1:]
        y = _solve_packed_upper(H, cb, g[:k_used], singular)
        x += np.matmul(Q[:k_used].T, y, out=w)  # the update, in the last product
        w = None  # gone before the next residual's product A @ x

    return x, SolveReport(
        iterations=total_iters,
        converged=final_relres <= cfg.tol,
        final_relres=final_relres,
        residual_history=np.asarray(history),
        wall_time=time.perf_counter() - t0,
        workspace_bytes=Q.nbytes + H.nbytes,
        cycles=cycles,
        breakdown=breakdown,
    )


def _solve_packed_upper(store: np.ndarray, cb: np.ndarray, g: list,
                        singular: bool) -> np.ndarray:
    """Solve ``R y = g`` by back substitution, where column ``j`` of the
    upper triangle ``R`` (``k = len(g)``) holds rows ``0 .. j`` at
    ``store[cb[j]:]``, so row ``i`` is gathered from ``store[cb[i:k] + i]``;
    a ``singular`` triangle, or one with a zero on its diagonal, gets the
    minimum-norm least-squares solution instead."""
    k = len(g)
    y = np.array(g)
    diagonal = store[cb[:k] + np.arange(k)]
    if singular or not diagonal.all():
        # stalled iteration on a singular operator: minimum-norm fallback on
        # the unpacked triangle (the rounding the rotations leave below the
        # diagonal is not unpacked)
        R = np.zeros((k, k))
        for j in range(k):
            R[: j + 1, j] = store[cb[j]: cb[j] + j + 1]
        return np.linalg.lstsq(R, y, rcond=None)[0]
    for i in range(k - 1, -1, -1):
        row = store[cb[i:k] + i]
        y[i] = (y[i] - row[1:] @ y[i + 1:]) / row[0]
    return y


def _sparse_lu(matrix):
    """SuperLU factor of a copy of ``matrix`` without its explicit zeros.

    ``relax=1, panel_size=1`` turn off the relaxed supernodes, which pad
    the factor with stored zeros, and the multi-column panels, which buy
    BLAS speed with workspace (the supernodal design of Demmel et al.,
    SIMAX 20, 1999): at the sizes here they cost memory and buy no time,
    though larger systems may factor slower without them.  Raises
    :class:`SingularMatrixError` on an empty row or column, naming its
    index, or on an exactly singular pivot.
    """
    import scipy.sparse.linalg as spla

    csc = sp.csc_matrix(matrix, copy=True)  # eliminate_zeros works in place
    csc.eliminate_zeros()
    row_counts = np.bincount(csc.indices, minlength=csc.shape[0])
    empty = np.flatnonzero((row_counts == 0) | (np.diff(csc.indptr) == 0))
    if empty.size:
        raise SingularMatrixError(f"empty row or column at index {int(empty[0])}")
    try:
        return spla.splu(csc, relax=1, panel_size=1)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc


def direct_solve(matrix, rhs) -> np.ndarray:
    """Reference solve by :func:`_sparse_lu` (whose errors it raises; use
    a pinned monolithic system) with one step of iterative refinement.

    An unpinned system with compatible data solves: its velocity matches
    the pinned solve to ~5e-11, but its pressure carries an arbitrary
    constant (4.6e7 on a uniform 64x64 grid at anna 1e5, ~3 digits lost),
    so pin the pressure when you need it.  Raises
    :class:`NumericOverflowError` when the solution of finite inputs
    overflows double precision.
    """
    A, b = _linear_system(matrix, rhs)
    factor = _sparse_lu(A)
    x = factor.solve(b)
    # one step of iterative refinement recovers the forward accuracy lost
    # on badly conditioned saddle points
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below, unwarned
        x += factor.solve(b - A @ x)
    if not np.isfinite(x).all():
        raise NumericOverflowError("the direct solution overflows double precision")
    return x
