"""Regime studies and verification: Da sweeps, conditioning, spectra,
manufactured-solution convergence, and limit consistency checks.

The sweep reuses one normalized permeability field and varies only the
control number anna = viscosity_ratio * Da, mirroring a fixed-contrast
experiment.  Condition numbers are computed on the pressure-pinned
matrix by default; the unpinned matrix has an exact constant-pressure
nullspace and its kappa is only meaningful with that mode excluded.

Conditioning and spectra take matrices of at most ``DENSE_DECOMP_LIMIT``
unknowns.  A sparse matrix gets kappa from one sparse LU factor and two
ARPACK Lanczos runs; a dense array gets the dense SVD, which stays the
oracle.  Spectra are always dense.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# scipy.sparse.linalg (SuperLU, ARPACK: ~10 MB resident) is imported by the
# kappa functions that use it, so a process that never asks for kappa or a
# direct solve never loads it

from ._util import atomic_write_text, checked_square_matrix
from .discretization import (
    BoundaryData,
    ForcingField,
    assemble_divergence,
    assemble_monolithic,
)
from .grid import StaggeredGrid, boundary_velocity_mask, build_grid
from .media import NormalizedPermeability, PermeabilityField, normalize, uniform_kstar
from .scaling import Regime, check_da_values, classify_regime
from .solvers import SolverConfig, direct_solve, gmres_solve

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
    da: float
    anna: float
    kappa: float | None
    kappa_flag: str
    iterations: int
    final_relres: float
    converged: bool
    regime: Regime
    divergence_max: float
    velocity_norm: float
    wall_time: float


@dataclass
class RegimeTable:
    rows: list[RegimeRow]
    metadata: dict = field(default_factory=dict)


@dataclass
class ConvergenceStudy:
    sizes: tuple[int, ...]
    velocity_errors: np.ndarray
    pressure_errors: np.ndarray
    velocity_orders: np.ndarray
    pressure_orders: np.ndarray


@dataclass
class LimitCheckReport:
    darcy_rel_diff: float
    stokes_rel_diff: float


def _checked(matrix):
    """The validated square matrix (CSR or float array) of at most
    ``DENSE_DECOMP_LIMIT`` rows, free of NaN and inf."""
    A = checked_square_matrix(matrix)
    if A.shape[0] > DENSE_DECOMP_LIMIT:
        raise UnsupportedSizeError(
            f"kappa and spectra limited to n <= {DENSE_DECOMP_LIMIT}, got {A.shape[0]}")
    return A


def _sigma_max(n: int, matvec, rmatvec) -> float:
    """Largest singular value of the n x n operator ``x -> matvec(x)``
    (adjoint ``rmatvec``): ARPACK Lanczos on the Gram operator, started
    from the ones vector, as ``svds(k=1)`` runs it, but with the generator
    for the restart vectors ARPACK draws after a breakdown seeded, so a
    repeated call returns the same bits."""
    import scipy.sparse.linalg as spla

    gram = spla.LinearOperator((n, n), matvec=lambda x: rmatvec(matvec(x)), dtype=float)
    # 1e-14 relative on sigma is 1e-28 on its square
    _, vectors = spla.eigsh(gram, k=1, tol=1e-28, v0=np.ones(n), rng=0)
    v = vectors[:, 0]
    return float(np.linalg.norm(matvec(v)) / np.linalg.norm(v))


def _singular_extremes(A) -> tuple[float, float]:
    """``(sigma_max, sigma_min)`` of a sparse matrix, with
    ``sigma_min = 1 / sigma_max(A^-1)`` and ``A^-1`` applied by one sparse
    LU factor (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 15).  Raises ``RuntimeError`` when the factor is exactly singular
    or ARPACK fails."""
    import scipy.sparse.linalg as spla

    n = A.shape[0]
    lu = spla.splu(A.tocsc())
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
    Da 1e-5..1e5) the two agree to 1e-8 relative and give the same flag;
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


def eigen_spectrum(matrix, exclude_nullspace: bool = False) -> SpectrumReport:
    """Dense eigendecomposition with the distance of the spectrum from 0.

    With ``exclude_nullspace`` the single smallest-magnitude eigenvalue
    (the constant-pressure mode of an unpinned system) is dropped from
    ``min_abs_nonzero``; otherwise eigenvalues below ``NULLSPACE_TOL``
    in magnitude are excluded.
    """
    A = _checked(matrix)
    eigenvalues = np.linalg.eigvals(A.toarray() if sp.issparse(A) else A)
    mags = np.sort(np.abs(eigenvalues))
    min_abs = float(mags[0])
    if exclude_nullspace:
        rest = mags[1:]
    else:
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


def uniform_flow_error(grid: StaggeredGrid, anna: float, gx: float, gy: float) -> float:
    """Worst deviation of the pinned direct solve from exact uniform flow.

    With K* = 1 and constant wall data ``(gx, gy)`` the discrete system is
    solved exactly by ``u = gx``, ``v = gy`` and a pressure that is linear
    with gradient ``-(gx, gy)``.  Returns the max error over u, v, that
    pressure profile and the discrete divergence.
    """
    bc = BoundaryData.uniform(grid, gx, gy)
    system = assemble_monolithic(grid, uniform_kstar(grid), anna, bc, pin_pressure=True)
    x = direct_solve(system.matrix, system.rhs)
    xp, yp = grid.p_coords()
    p = x[grid.n_velocity:]
    exact_p = p[0] - gx * (xp - xp[0]) - gy * (yp - yp[0])
    return max(
        float(np.abs(x[: grid.n_u] - gx).max()),
        float(np.abs(x[grid.n_u: grid.n_velocity] - gy).max()),
        float(np.abs(p - exact_p).max()),
        check_divergence(grid, x[: grid.n_velocity]),
    )


def nullspace_residual(sizes, anna: float) -> float:
    """Largest relative residual ``max|M z| / max_i sum_j |M_ij|`` of the
    constant-pressure vector ``z`` on the unpinned uniform-K* n x n systems,
    over the grid sizes ``n`` given."""
    worst = 0.0
    for n in sizes:
        grid = build_grid(n, n)
        bc = BoundaryData.uniform(grid, 0.0, 0.0)  # the matrix does not depend on it
        matrix = assemble_monolithic(grid, uniform_kstar(grid), anna, bc).matrix
        z = np.zeros(grid.n_total)
        z[grid.n_velocity:] = 1.0
        resid = float(np.abs(matrix @ z).max())
        worst = max(worst, resid / float(np.abs(matrix).sum(axis=1).max()))
    return worst


def sweep_darcy(
    grid: StaggeredGrid,
    field_: PermeabilityField,
    da_values,
    viscosity_ratio: float,
    bc: BoundaryData,
    config: SolverConfig,
    pin_pressure: bool = False,
) -> RegimeTable:
    """GMRES behavior across a Darcy-number sweep with one fixed field.

    Each point assembles the system at anna = viscosity_ratio * da and
    solves it; kappa (when the size permits) is measured on the
    pressure-pinned matrix.  A non-converged point is recorded
    and the sweep continues.

    The sweep runs in two passes.  The first solves every point and keeps
    only what its row needs; the second measures every kappa.  The first
    kappa loads SuperLU and ARPACK (~10 MB resident), so with the solves
    done first that memory never adds to a live Krylov workspace.  A
    pinned sweep keeps each solved matrix for its kappa; an unpinned one
    assembles the pinned matrix again in the second pass.
    """
    da = check_da_values(da_values)
    kstar = normalize(field_)
    with_kappa = grid.n_total <= DENSE_DECOMP_LIMIT
    rows: list[RegimeRow] = []
    solved = []  # each point's matrix when it is the pinned one kappa needs
    for value in da:
        anna = viscosity_ratio * value
        system = assemble_monolithic(grid, kstar, anna, bc, pin_pressure=pin_pressure)
        t0 = time.perf_counter()
        x, report = gmres_solve(system.matrix, system.rhs, config)
        wall = time.perf_counter() - t0

        velocity = x[: grid.n_velocity]
        rows.append(
            RegimeRow(
                da=value,
                anna=anna,
                kappa=None,
                kappa_flag="omitted",
                iterations=report.iterations,
                final_relres=report.final_relres,
                converged=report.converged,
                regime=classify_regime(anna),
                divergence_max=check_divergence(grid, velocity),
                velocity_norm=float(np.linalg.norm(velocity)),
                wall_time=wall,
            )
        )
        solved.append(system.matrix if pin_pressure and with_kappa else None)

    if with_kappa:
        for row, pinned in zip(rows, solved):
            if pinned is None:
                pinned = assemble_monolithic(grid, kstar, row.anna, bc, pin_pressure=True).matrix
            cond = condition_number(pinned)
            row.kappa = cond.kappa
            row.kappa_flag = "pinned-singular" if cond.numerically_singular else "pinned"

    metadata = {
        "nx": grid.nx,
        "ny": grid.ny,
        "contrast_x": field_.contrast_x,
        "contrast_y": field_.contrast_y,
        "viscosity_ratio": viscosity_ratio,
        "tol": config.tol,
        "maxit": config.maxit,
        "restart": config.restart,
        "pin_pressure": pin_pressure,
        "kappa_convention": "pinned",
    }
    return RegimeTable(rows, metadata)


def write_regime_csv(table: RegimeTable, path, timings: bool = True) -> None:
    """Write the sweep table; with ``timings=False`` wall_ms is zeroed so
    repeated runs produce byte-identical files."""
    lines = ["da,anna,kappa,kappa_flag,iterations,relres,regime,wall_ms"]
    for row in table.rows:
        kappa = "" if row.kappa is None else f"{row.kappa:.5e}"
        wall_ms = row.wall_time * 1e3 if timings else 0.0
        lines.append(
            f"{row.da:.5e},{row.anna:.5e},{kappa},{row.kappa_flag},"
            f"{row.iterations},{row.final_relres:.5e},{row.regime.value},{wall_ms:.5e}"
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


def mms_forcing(grid: StaggeredGrid, anna: float, kstar_value: float) -> ForcingField:
    """Force density that makes the manufactured pair an exact solution."""

    def f_u(x, y):
        u, _ = mms_velocity(x, y)
        lap_u, _ = mms_velocity_laplacian(x, y)
        dpdx, _ = mms_pressure_gradient(x, y)
        return -anna * lap_u + u / kstar_value + dpdx

    def f_v(x, y):
        _, v = mms_velocity(x, y)
        _, lap_v = mms_velocity_laplacian(x, y)
        _, dpdy = mms_pressure_gradient(x, y)
        return -anna * lap_v + v / kstar_value + dpdy

    return ForcingField.from_functions(grid, f_u, f_v)


def _solution_errors(grid: StaggeredGrid, solution: np.ndarray) -> tuple[float, float]:
    xu, yu = grid.u_coords()
    xv, yv = grid.v_coords()
    u_ex, _ = mms_velocity(xu, yu)
    _, v_ex = mms_velocity(xv, yv)
    du = solution[: grid.n_u] - u_ex
    dv = solution[grid.n_u: grid.n_velocity] - v_ex
    area = grid.dx * grid.dy
    vel_err = math.sqrt(area * (float(du @ du) + float(dv @ dv)))

    xp, yp = grid.p_coords()
    dp = solution[grid.n_velocity:] - mms_pressure(xp, yp)
    dp = dp - dp.mean()  # pressure is defined up to a constant
    p_err = math.sqrt(area * float(dp @ dp))
    return vel_err, p_err


def manufactured_run(grid_sizes, anna: float, kstar_value: float = 1.0) -> ConvergenceStudy:
    """Refinement study against the manufactured solution (pinned direct solves)."""
    sizes = tuple(int(n) for n in grid_sizes)
    if len(sizes) < 3:
        raise ValueError(f"need at least 3 grid levels, got {len(sizes)}")

    vel_errors = []
    p_errors = []
    for n in sizes:
        grid = build_grid(n, n)
        kstar = NormalizedPermeability(
            np.full(grid.n_p, float(kstar_value)),
            np.full(grid.n_p, float(kstar_value)),
            kmax=1.0,
        )
        forcing = mms_forcing(grid, anna, kstar_value)
        bc = BoundaryData.uniform(grid, 0.0, 0.0)  # manufactured velocity vanishes on walls
        system = assemble_monolithic(grid, kstar, anna, bc, forcing=forcing, pin_pressure=True)
        solution = direct_solve(system.matrix, system.rhs)
        ve, pe = _solution_errors(grid, solution)
        vel_errors.append(ve)
        p_errors.append(pe)

    vel_errors = np.asarray(vel_errors)
    p_errors = np.asarray(p_errors)
    ratios = np.array([math.log(a / b) for a, b in zip(sizes, sizes[1:])])
    vel_orders = np.log(vel_errors[1:] / vel_errors[:-1]) / ratios
    p_orders = np.log(p_errors[1:] / p_errors[:-1]) / ratios
    return ConvergenceStudy(sizes, vel_errors, p_errors, vel_orders, p_orders)


def _relative_difference(x, reference, model: str) -> float:
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        raise ValueError(f"the {model} reference flow is identically zero; "
                         "the limit check needs nonzero wall data")
    return float(np.linalg.norm(x - reference)) / ref_norm


def limit_checks(
    grid: StaggeredGrid,
    field_: PermeabilityField,
    bc: BoundaryData,
) -> LimitCheckReport:
    """Consistency with the two limiting models.

    Darcy: the heterogeneous system under ``bc`` at anna =
    ``DARCY_LIMIT_ANNA`` against the anna = 0 assembly (pure drag; the
    viscous wall coupling drops out), compared on interior velocity DOFs.
    Stokes: the uniform-K* system at anna = ``STOKES_LIMIT_ANNA`` against
    the same assembly with the drag block removed, both under lid-driven
    data, which exercises the comparison more than a uniform through-flow
    does.  All four are pinned direct solves.  Raises ``ValueError`` when
    the Darcy reference flow is identically zero (zero ``bc``), since the
    relative difference is then 0/0.
    """
    interior = ~boundary_velocity_mask(grid)

    kstar = normalize(field_)
    full = assemble_monolithic(grid, kstar, DARCY_LIMIT_ANNA, bc, pin_pressure=True)
    oracle = assemble_monolithic(grid, kstar, 0.0, bc, pin_pressure=True)
    x_full = direct_solve(full.matrix, full.rhs)[: grid.n_velocity][interior]
    x_oracle = direct_solve(oracle.matrix, oracle.rhs)[: grid.n_velocity][interior]
    darcy_rel = _relative_difference(x_full, x_oracle, "Darcy")

    ones = uniform_kstar(grid)
    lid = BoundaryData.lid_driven(grid)
    full_s = assemble_monolithic(grid, ones, STOKES_LIMIT_ANNA, lid, pin_pressure=True)
    oracle_s = assemble_monolithic(
        grid, ones, STOKES_LIMIT_ANNA, lid, pin_pressure=True, include_drag=False
    )
    u_full = direct_solve(full_s.matrix, full_s.rhs)[: grid.n_velocity]
    u_oracle = direct_solve(oracle_s.matrix, oracle_s.rhs)[: grid.n_velocity]
    stokes_rel = _relative_difference(u_full, u_oracle, "Stokes")

    return LimitCheckReport(darcy_rel, stokes_rel)
