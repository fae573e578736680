"""Regime studies and verification: Da sweeps, conditioning, spectra,
manufactured-solution convergence, and limit consistency checks.

The sweep reuses one normalized permeability field and varies only the
control number anna, which equals Da at unit viscosity ratio, mirroring
a fixed-contrast experiment.  Condition numbers are always computed on
the pressure-pinned matrix; the unpinned matrix has an exact
constant-pressure nullspace and its kappa is only meaningful with that
mode excluded.

Conditioning and spectra take matrices of at most ``DENSE_DECOMP_LIMIT``
unknowns; :func:`condition_number` has the two kappa paths, and spectra
are always dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# scipy.sparse.linalg (SuperLU, ARPACK: ~10 MB resident) is imported by
# _sigma_max and solvers._sparse_lu, so a process that never asks for kappa
# or a direct solve never loads it

from ._util import atomic_write_text, checked_square_matrix
from .discretization import BoundaryData, assemble_divergence, assemble_monolithic
from .grid import StaggeredGrid, boundary_velocity_mask, build_grid
from .media import PermeabilityField, uniform_kstar
from .scaling import check_da_values, classify_regime
from .solvers import SolveReport, SolverConfig, _sparse_lu, direct_solve, gmres_solve

#: Largest matrix accepted for kappa / spectra.
DENSE_DECOMP_LIMIT = 3000
#: |eigenvalue| at or below this counts as the numerical nullspace.
NULLSPACE_TOL = 1e-10
#: sigma_min below this fraction of sigma_max flags numerical singularity.
SINGULAR_RTOL = 1e-14
#: anna of the heterogeneous system compared with the pure-drag Darcy model.
DARCY_LIMIT_ANNA = 1e-8
#: anna of the uniform-K* system compared with the drag-free Stokes model.
STOKES_LIMIT_ANNA = 1e4


class UnsupportedSizeError(ValueError):
    """Matrix larger than ``DENSE_DECOMP_LIMIT`` for kappa or spectra."""


@dataclass(frozen=True)
class ConditionReport:
    kappa: float
    numerically_singular: bool


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    min_abs: float
    min_abs_nonzero: float


@dataclass
class RegimeRow:
    """One sweep point: its anna, its GMRES report and a copy of the velocity
    block of its solution; kappa is filled in by the sweep's second pass."""

    anna: float
    report: SolveReport
    velocity: np.ndarray = field(repr=False)
    kappa: float | None = None
    kappa_flag: str = "omitted"


@dataclass
class ConvergenceStudy:
    sizes: tuple[int, ...]
    velocity_errors: np.ndarray
    velocity_orders: np.ndarray


@dataclass
class LimitCheckReport:
    darcy_rel_diff: float
    stokes_rel_diff: float


def _checked(matrix):
    """The validated square matrix (CSR or float array) of 1 to
    ``DENSE_DECOMP_LIMIT`` rows, free of NaN and inf."""
    A = checked_square_matrix(matrix)
    if A.shape[0] == 0:
        raise ValueError("matrix is empty: kappa and spectra need at least one row")
    if A.shape[0] > DENSE_DECOMP_LIMIT:
        raise UnsupportedSizeError(
            f"kappa and spectra limited to n <= {DENSE_DECOMP_LIMIT}, got {A.shape[0]}")
    return A


def _sigma_max(n: int, matvec, rmatvec) -> float:
    """Largest singular value of the n x n operator ``x -> matvec(x)``
    (adjoint ``rmatvec``): ARPACK Lanczos on the Gram operator, started
    from the ones vector, as ``svds(k=1)`` runs it, but with the generator
    for the restart vectors ARPACK draws after a breakdown seeded, so a
    repeated call returns the same bits.  ``tol=1e-14`` is a relative bound
    on the Ritz value of the Gram operator, so sigma, its root, gets 5e-15."""
    import scipy.sparse.linalg as spla

    gram = spla.LinearOperator((n, n), matvec=lambda x: rmatvec(matvec(x)), dtype=float)
    _, vectors = spla.eigsh(gram, k=1, tol=1e-14, v0=np.ones(n), rng=0)
    v = vectors[:, 0]
    return float(np.linalg.norm(matvec(v)) / np.linalg.norm(v))


def _singular_extremes(A) -> tuple[float, float]:
    """``(sigma_max, sigma_min)`` of a sparse matrix, with
    ``sigma_min = 1 / sigma_max(A^-1)`` and ``A^-1`` applied by one sparse
    LU factor (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 15).  Raises ``RuntimeError`` when the factor is singular, an
    empty row or column included, or ARPACK fails."""
    n = A.shape[0]
    lu = _sparse_lu(A)
    AT = A.T  # bound once: every A.T builds a new transpose object
    s_max = _sigma_max(n, lambda x: A @ x, lambda y: AT @ y)
    s_inv = _sigma_max(n, lu.solve, lambda y: lu.solve(y, trans="T"))
    return s_max, 1.0 / s_inv


def _report(s_max: float, s_min: float) -> ConditionReport:
    singular = s_min < SINGULAR_RTOL * s_max
    kappa = math.inf if s_min == 0.0 else s_max / s_min
    return ConditionReport(kappa, singular)


def condition_number(matrix) -> ConditionReport:
    """kappa = sigma_max / sigma_min of a square matrix of at most
    ``DENSE_DECOMP_LIMIT`` rows.

    A dense array gets a dense SVD, the oracle.  A sparse matrix gets two
    ARPACK runs: sigma_max of ``A``, and sigma_min as
    ``1 / sigma_max(A^-1)`` through one sparse LU factor.  On the layered
    pressure-pinned sweep matrices (grids 4 to 20, contrast 1e2 and 1e5,
    Da 1e-5..1e5) the two agree to 1.2e-8 relative and give the same flag;
    on numerically singular ones, where the dense sigma_min is at SVD
    resolution, the gap grows with n to 2e-7 on the canonical 20x20
    sweep, whose 6-digit kappa values print unchanged, and 5e-6 at
    contrast 1e2.  A sparse matrix whose LU factor is exactly singular,
    or on which ARPACK fails or does not converge, gets the dense SVD, as
    does a 1 x 1 one.  ``numerically_singular`` means
    ``sigma_min < SINGULAR_RTOL * sigma_max``.
    """
    A = _checked(matrix)
    if sp.issparse(A):
        if A.shape[0] > 1:  # ARPACK needs k = 1 < n
            try:
                return _report(*_singular_extremes(A))
            except RuntimeError:  # also ArpackNoConvergence
                pass
        A = A.toarray()
    sigma = np.linalg.svd(A, compute_uv=False)
    return _report(float(sigma[0]), float(sigma[-1]))


def eigen_spectrum(matrix) -> SpectrumReport:
    """Dense eigendecomposition with the distance of the spectrum from 0;
    ``min_abs_nonzero`` skips eigenvalues at or below ``NULLSPACE_TOL`` in
    magnitude."""
    A = _checked(matrix)
    eigenvalues = np.linalg.eigvals(A.toarray() if sp.issparse(A) else A)
    mags = np.sort(np.abs(eigenvalues))
    min_abs = float(mags[0])
    rest = mags[mags > NULLSPACE_TOL]
    min_nonzero = float(rest[0]) if rest.size else math.nan
    return SpectrumReport(eigenvalues, min_abs, min_nonzero)


def check_divergence(grid: StaggeredGrid, velocity) -> float:
    """Max cell magnitude of the discrete divergence of a face velocity field."""
    u = np.asarray(velocity, dtype=float).ravel()
    if u.size != grid.n_velocity:
        raise ValueError(f"velocity has {u.size} entries, expected {grid.n_velocity}")
    div = assemble_divergence(grid) @ u
    return float(np.abs(div).max())


def l2_norm(x) -> float:
    """2-norm by ``np.hypot.reduce``, which squares no entry, so it under- or
    overflows only where the norm itself does; every ``verify`` verdict uses it."""
    return float(np.hypot.reduce(np.ravel(x)))


def _pinned_solve(grid: StaggeredGrid, kstar, anna: float, bc: BoundaryData, **options):
    """Direct solve of the pressure-pinned system, the oracle of every check
    here; ``options`` go to :func:`assemble_monolithic`."""
    system = assemble_monolithic(grid, kstar, anna, bc, pin_pressure=True, **options)
    return direct_solve(system.matrix, system.rhs)


def uniform_flow_error(grid: StaggeredGrid, anna: float, gx: float, gy: float) -> float:
    """Worst deviation of the pinned direct solve from exact uniform flow.

    With K* = 1 and constant wall data ``(gx, gy)`` the discrete system is
    solved exactly by ``u = gx``, ``v = gy`` and a pressure that is linear
    with gradient ``-(gx, gy)``.  Returns the max error over u, v, that
    pressure profile and the discrete divergence relative to
    ``max(|gx|, |gy|)``, free of the units since the system is linear in
    the wall data; raises ``ValueError`` when that maximum is 0.
    """
    scale = max(abs(gx), abs(gy))
    if scale == 0.0:
        raise ValueError("the uniform-flow check needs nonzero wall data")
    x = _pinned_solve(grid, uniform_kstar(grid), anna, BoundaryData(gx, gy))
    xp, yp = grid.p_coords()
    p = x[grid.n_velocity:]
    exact_p = p[0] - gx * (xp - xp[0]) - gy * (yp - yp[0])
    return max(
        float(np.abs(x[: grid.n_u] - gx).max()),
        float(np.abs(x[grid.n_u: grid.n_velocity] - gy).max()),
        float(np.abs(p - exact_p).max()),
        check_divergence(grid, x[: grid.n_velocity]),
    ) / scale


def nullspace_residual(grid: StaggeredGrid, kstar: PermeabilityField, anna: float) -> float:
    """Relative residual ``max|M z| / max_i sum_j |M_ij|`` of the
    constant-pressure vector ``z`` on the unpinned system ``M`` of ``kstar``
    at ``anna``: 0 for a correct assembly, since ``G 1 = 0`` for any field."""
    bc = BoundaryData(0.0, 0.0)  # the matrix does not depend on it
    matrix = assemble_monolithic(grid, kstar, anna, bc).matrix
    z = np.zeros(grid.n_total)
    z[grid.n_velocity:] = 1.0
    return float(np.abs(matrix @ z).max()) / float(np.abs(matrix).sum(axis=1).max())


def sweep_darcy(
    grid: StaggeredGrid,
    kstar: PermeabilityField,
    da_values,
    bc: BoundaryData,
    config: SolverConfig,
    pin_pressure: bool = False,
) -> list[RegimeRow]:
    """GMRES behavior across a Darcy-number sweep on one normalized field
    ``kstar``, as :func:`normalize` returns it.

    Each point assembles the system at anna = da (Anna's number at unit
    viscosity ratio) and solves it; kappa is measured on the
    pressure-pinned matrix, and omitted above ``DENSE_DECOMP_LIMIT``
    unknowns.  A non-converged point is recorded and the sweep continues.

    The sweep runs in two passes.  The first solves every point and keeps
    its report and a copy of its velocity block; the second measures every
    kappa.  The first kappa loads SuperLU and ARPACK (~10 MB resident), so
    with the solves done first that memory never adds to a live Krylov
    workspace.  The second pass assembles each point's pinned matrix again.
    """
    with_kappa = grid.n_total <= DENSE_DECOMP_LIMIT
    rows: list[RegimeRow] = []
    for anna in check_da_values(da_values):
        system = assemble_monolithic(grid, kstar, anna, bc, pin_pressure=pin_pressure)
        x, report = gmres_solve(system.matrix, system.rhs, config)
        rows.append(RegimeRow(anna, report, x[: grid.n_velocity].copy()))

    if with_kappa:
        for row in rows:
            pinned = assemble_monolithic(grid, kstar, row.anna, bc, pin_pressure=True).matrix
            cond = condition_number(pinned)
            row.kappa = cond.kappa
            row.kappa_flag = "pinned-singular" if cond.numerically_singular else "pinned"
    return rows


def write_regime_csv(rows: list[RegimeRow], path, timings: bool = True) -> None:
    """Write the sweep table, whose da and anna columns both print the
    row's anna, each regime classified from it; with ``timings=False``
    wall_ms is zeroed so repeated runs produce byte-identical files."""
    lines = ["da,anna,kappa,kappa_flag,iterations,relres,regime,wall_ms"]
    for row in rows:
        kappa = "" if row.kappa is None else f"{row.kappa:.5e}"
        report = row.report
        wall_ms = report.wall_time * 1e3 if timings else 0.0
        lines.append(
            f"{row.anna:.5e},{row.anna:.5e},{kappa},{row.kappa_flag},{report.iterations},"
            f"{report.final_relres:.5e},{classify_regime(row.anna)},{wall_ms:.5e}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Manufactured solution: a divergence-free velocity from the stream function
# psi = sin^2(pi x) sin^2(pi y) / pi, with p = cos(pi x) cos(pi y).
# ---------------------------------------------------------------------------

def mms_velocity(x, y):
    u = np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y)
    v = -np.sin(2.0 * np.pi * x) * np.sin(np.pi * y) ** 2
    return u, v


def mms_pressure(x, y):
    return np.cos(np.pi * x) * np.cos(np.pi * y)


def mms_velocity_laplacian(x, y):
    pi = np.pi
    lap_u = 2.0 * pi**2 * np.cos(2.0 * pi * x) * np.sin(2.0 * pi * y) \
        - 4.0 * pi**2 * np.sin(pi * x) ** 2 * np.sin(2.0 * pi * y)
    lap_v = 4.0 * pi**2 * np.sin(2.0 * pi * x) * np.sin(pi * y) ** 2 \
        - 2.0 * pi**2 * np.sin(2.0 * pi * x) * np.cos(2.0 * pi * y)
    return lap_u, lap_v


def mms_pressure_gradient(x, y):
    pi = np.pi
    return -pi * np.sin(pi * x) * np.cos(pi * y), -pi * np.cos(pi * x) * np.sin(pi * y)


def mms_forcing(grid: StaggeredGrid, anna: float) -> np.ndarray:
    """Force density on the velocity faces (u faces, then v faces) that
    makes the manufactured pair an exact solution with K* = 1."""
    parts = []
    for k, (x, y) in enumerate((grid.u_coords(), grid.v_coords())):
        parts.append(-anna * mms_velocity_laplacian(x, y)[k] + mms_velocity(x, y)[k]
                     + mms_pressure_gradient(x, y)[k])
    return np.concatenate(parts)


def _velocity_error(grid: StaggeredGrid, solution: np.ndarray) -> float:
    u_ex = mms_velocity(*grid.u_coords())[0]
    v_ex = mms_velocity(*grid.v_coords())[1]
    error = solution[: grid.n_velocity] - np.concatenate((u_ex, v_ex))
    return math.sqrt(grid.dx * grid.dy) * l2_norm(error)


def manufactured_run(grid_sizes, anna: float) -> ConvergenceStudy:
    """Refinement study against the manufactured solution with K* = 1
    (pinned direct solves)."""
    sizes = tuple(int(n) for n in grid_sizes)
    if len(sizes) < 3:
        raise ValueError(f"need at least 3 grid levels, got {len(sizes)}")

    vel_errors = []
    for n in sizes:
        grid = build_grid(n, n)
        bc = BoundaryData(0.0, 0.0)  # manufactured velocity vanishes on walls
        solution = _pinned_solve(grid, uniform_kstar(grid), anna, bc,
                                 forcing=mms_forcing(grid, anna))
        vel_errors.append(_velocity_error(grid, solution))

    vel_errors = np.asarray(vel_errors)
    ratios = np.array([math.log(a / b) for a, b in zip(sizes, sizes[1:])])
    vel_orders = np.log(vel_errors[1:] / vel_errors[:-1]) / ratios
    return ConvergenceStudy(sizes, vel_errors, vel_orders)


def _relative_difference(x, reference, model: str) -> float:
    """``||x - reference|| / ||reference||`` in :func:`l2_norm`, so the
    ratio holds its digits at any scale of the wall data."""
    ref_norm = l2_norm(reference)
    if ref_norm == 0.0:
        raise ValueError(f"the {model} reference flow is identically zero; "
                         "the limit check needs nonzero wall data")
    return l2_norm(x - reference) / ref_norm


def limit_checks(
    grid: StaggeredGrid,
    kstar: PermeabilityField,
    bc: BoundaryData,
) -> LimitCheckReport:
    """Consistency with the two limiting models.

    Darcy: the system of the normalized field ``kstar`` under ``bc`` at
    anna = ``DARCY_LIMIT_ANNA`` against the anna = 0 assembly (pure drag;
    the viscous wall coupling drops out), compared on interior velocity
    DOFs.
    Stokes: the uniform-K* system at anna = ``STOKES_LIMIT_ANNA`` against
    the same assembly with the drag block removed, both under lid-driven
    data, which exercises the comparison more than a uniform through-flow
    does.  All four are pinned direct solves.  Raises ``ValueError`` when
    the Darcy reference flow is identically zero (zero ``bc``), since the
    relative difference is then 0/0.
    """
    interior = ~boundary_velocity_mask(grid)
    nv = grid.n_velocity

    x_full = _pinned_solve(grid, kstar, DARCY_LIMIT_ANNA, bc)[:nv][interior]
    x_oracle = _pinned_solve(grid, kstar, 0.0, bc)[:nv][interior]
    darcy_rel = _relative_difference(x_full, x_oracle, "Darcy")

    ones = uniform_kstar(grid)
    lid = BoundaryData(0.0, 0.0, lid=1.0)
    u_full = _pinned_solve(grid, ones, STOKES_LIMIT_ANNA, lid)[:nv]
    u_oracle = _pinned_solve(grid, ones, STOKES_LIMIT_ANNA, lid, include_drag=False)[:nv]
    stokes_rel = _relative_difference(u_full, u_oracle, "Stokes")

    return LimitCheckReport(darcy_rel, stokes_rel)
