"""Discrete operators and the monolithic saddle-point system.

The dimensionless momentum and continuity equations on the staggered
grid become

    [ -anna*L + Kinv   G ] [U]   [rhs_u]
    [      D           0 ] [P] = [  0  ]

where L is the vector Laplacian on the face lattices, G the pressure
gradient onto faces, D the cell divergence of face velocities, and Kinv
a diagonal drag block from the normalized permeability.  Velocity faces
on the domain boundary stay in the unknown vector and are pinned with
identity rows carrying the Dirichlet data, which keeps the system size
at 3*nx*ny + nx + ny.  One mask of these fixed rows (plus an optional
pressure pin) turns the assembled block rows into identity rows.

Tangential Dirichlet data on the walls is imposed by ghost reflection
(ghost = 2*g_wall - interior); the matrix absorbs the interior part and
the data part is returned as a separate boundary-contribution vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._util import NumericOverflowError
from .grid import StaggeredGrid, boundary_velocity_mask
from .media import InvalidFieldError, NormalizedPermeability

#: |net boundary flux| above this (relative to the data magnitude) marks
#: boundary data as incompatible with the divergence constraint.
COMPATIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet velocity data on the four walls.

    Normal components sit on the boundary faces themselves (u_left,
    u_right over j; v_bottom, v_top over i).  Tangential components are
    wall traces used by the ghost reflection: u along the bottom/top
    walls (indexed like u-faces, length nx+1) and v along the left/right
    walls (length ny+1).
    """

    u_left: np.ndarray
    u_right: np.ndarray
    v_bottom: np.ndarray
    v_top: np.ndarray
    u_bottom: np.ndarray
    u_top: np.ndarray
    v_left: np.ndarray
    v_right: np.ndarray

    def __post_init__(self):
        for name in ("u_left", "u_right", "v_bottom", "v_top",
                     "u_bottom", "u_top", "v_left", "v_right"):
            arr = np.asarray(getattr(self, name), dtype=float).ravel()
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"boundary data {name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def uniform(cls, grid: StaggeredGrid, gx: float, gy: float) -> "BoundaryData":
        """Constant inflow g = (gx, gy) on the whole boundary."""
        nx, ny = grid.nx, grid.ny
        return cls(
            u_left=np.full(ny, gx),
            u_right=np.full(ny, gx),
            v_bottom=np.full(nx, gy),
            v_top=np.full(nx, gy),
            u_bottom=np.full(nx + 1, gx),
            u_top=np.full(nx + 1, gx),
            v_left=np.full(ny + 1, gy),
            v_right=np.full(ny + 1, gy),
        )

    @classmethod
    def lid_driven(cls, grid: StaggeredGrid, u_lid: float = 1.0) -> "BoundaryData":
        """Closed cavity with a sliding top wall (tangential data only)."""
        nx, ny = grid.nx, grid.ny
        return cls(
            u_left=np.zeros(ny),
            u_right=np.zeros(ny),
            v_bottom=np.zeros(nx),
            v_top=np.zeros(nx),
            u_bottom=np.zeros(nx + 1),
            u_top=np.full(nx + 1, u_lid),
            v_left=np.zeros(ny + 1),
            v_right=np.zeros(ny + 1),
        )

    def validate_sizes(self, grid: StaggeredGrid) -> None:
        expected = {
            "u_left": grid.ny, "u_right": grid.ny,
            "v_bottom": grid.nx, "v_top": grid.nx,
            "u_bottom": grid.nx + 1, "u_top": grid.nx + 1,
            "v_left": grid.ny + 1, "v_right": grid.ny + 1,
        }
        for name, size in expected.items():
            got = getattr(self, name).size
            if got != size:
                raise ValueError(f"boundary data {name} has {got} entries, expected {size}")

    def net_flux(self, grid: StaggeredGrid) -> float:
        """Signed outward flux of g over the boundary (must vanish for solvability)."""
        out_x = (self.u_right.sum() - self.u_left.sum()) * grid.dy
        out_y = (self.v_top.sum() - self.v_bottom.sum()) * grid.dx
        return float(out_x + out_y)


@dataclass(frozen=True)
class ForcingField:
    """Face-centered force densities; zero in the plain flow problem."""

    f_u: np.ndarray
    f_v: np.ndarray

    def __post_init__(self):
        for name in ("f_u", "f_v"):
            arr = np.asarray(getattr(self, name), dtype=float).ravel()
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"forcing {name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def zero(cls, grid: StaggeredGrid) -> "ForcingField":
        return cls(np.zeros(grid.n_u), np.zeros(grid.n_v))

    @classmethod
    def from_functions(cls, grid: StaggeredGrid, fu, fv) -> "ForcingField":
        """Evaluate callables fu(x, y), fv(x, y) at the face centers."""
        xu, yu = grid.u_coords()
        xv, yv = grid.v_coords()
        return cls(np.asarray(fu(xu, yu), dtype=float), np.asarray(fv(xv, yv), dtype=float))


@dataclass
class MonolithicSystem:
    """Assembled saddle-point matrix, right-hand side, and the warnings
    raised while assembling them."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    warnings: list[str]


def _csr(rows, cols, vals, shape) -> sp.csr_matrix:
    """Canonical CSR (duplicates summed, indices sorted) from lists of triplet arrays."""
    if not rows:
        return sp.csr_matrix(shape)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def assemble_laplacian(grid: StaggeredGrid) -> sp.csr_matrix:
    """Five-point vector Laplacian on the u/v face lattices.

    Rows of boundary-normal faces are left empty (they become identity
    rows in the monolithic system).  Tangential walls are folded in by
    ghost reflection: the ghost unknown contributes -1/h^2 to the
    diagonal here and 2*g/h^2 to :func:`laplacian_boundary_term`.
    """
    nx, ny = grid.nx, grid.ny
    idx2, idy2 = 1.0 / grid.dx**2, 1.0 / grid.dy**2
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add(r, c, v):
        rows.append(np.asarray(r))
        cols.append(np.asarray(c))
        vals.append(np.broadcast_to(v, np.asarray(r).shape).astype(float))

    # u-faces, interior in x: i = 1..nx-1, all j
    if nx >= 2:
        i = np.repeat(np.arange(1, nx), ny)
        j = np.tile(np.arange(ny), nx - 1)
        r = grid.u_index(i, j)
        diag = np.full(r.size, -2.0 * idx2 - 2.0 * idy2)
        add(r, grid.u_index(i - 1, j), idx2)
        add(r, grid.u_index(i + 1, j), idx2)
        below = j >= 1
        add(r[below], grid.u_index(i[below], j[below] - 1), idy2)
        diag[~below] -= idy2  # ghost reflection at the bottom wall
        above = j <= ny - 2
        add(r[above], grid.u_index(i[above], j[above] + 1), idy2)
        diag[~above] -= idy2  # ghost reflection at the top wall
        add(r, r, diag)

    # v-faces, interior in y: j = 1..ny-1, all i
    if ny >= 2:
        i = np.tile(np.arange(nx), ny - 1)
        j = np.repeat(np.arange(1, ny), nx)
        r = grid.v_index(i, j)
        diag = np.full(r.size, -2.0 * idx2 - 2.0 * idy2)
        add(r, grid.v_index(i, j - 1), idy2)
        add(r, grid.v_index(i, j + 1), idy2)
        left = i >= 1
        add(r[left], grid.v_index(i[left] - 1, j[left]), idx2)
        diag[~left] -= idx2
        right = i <= nx - 2
        add(r[right], grid.v_index(i[right] + 1, j[right]), idx2)
        diag[~right] -= idx2
        add(r, r, diag)

    return _csr(rows, cols, vals, (grid.n_velocity, grid.n_velocity))


def laplacian_boundary_term(grid: StaggeredGrid, bc: BoundaryData) -> np.ndarray:
    """Ghost-cell data vector paired with :func:`assemble_laplacian`.

    The discrete Laplacian of the true field at a wall-adjacent face is
    (L u)_row + term_row with term_row = 2*g_wall/h^2.
    """
    bc.validate_sizes(grid)
    nx, ny = grid.nx, grid.ny
    idx2, idy2 = 1.0 / grid.dx**2, 1.0 / grid.dy**2
    vec = np.zeros(grid.n_velocity)
    if nx >= 2:
        i = np.arange(1, nx)
        np.add.at(vec, grid.u_index(i, 0), 2.0 * idy2 * bc.u_bottom[i])
        np.add.at(vec, grid.u_index(i, ny - 1), 2.0 * idy2 * bc.u_top[i])
    if ny >= 2:
        j = np.arange(1, ny)
        np.add.at(vec, grid.v_index(0, j), 2.0 * idx2 * bc.v_left[j])
        np.add.at(vec, grid.v_index(nx - 1, j), 2.0 * idx2 * bc.v_right[j])
    return vec


def assemble_gradient(grid: StaggeredGrid) -> sp.csr_matrix:
    """Pressure gradient onto interior faces; boundary-normal rows empty."""
    nx, ny = grid.nx, grid.ny
    rows, cols, vals = [], [], []
    if nx >= 2:
        i = np.repeat(np.arange(1, nx), ny)
        j = np.tile(np.arange(ny), nx - 1)
        r = grid.u_index(i, j)
        rows += [r, r]
        cols += [grid.p_index(i, j) - grid.n_velocity, grid.p_index(i - 1, j) - grid.n_velocity]
        vals += [np.full(r.size, 1.0 / grid.dx), np.full(r.size, -1.0 / grid.dx)]
    if ny >= 2:
        i = np.tile(np.arange(nx), ny - 1)
        j = np.repeat(np.arange(1, ny), nx)
        r = grid.v_index(i, j)
        rows += [r, r]
        cols += [grid.p_index(i, j) - grid.n_velocity, grid.p_index(i, j - 1) - grid.n_velocity]
        vals += [np.full(r.size, 1.0 / grid.dy), np.full(r.size, -1.0 / grid.dy)]
    return _csr(rows, cols, vals, (grid.n_velocity, grid.n_p))


def assemble_divergence(grid: StaggeredGrid) -> sp.csr_matrix:
    """Net outflux per cell of the face velocities, divided by cell size."""
    nx, ny = grid.nx, grid.ny
    i = np.tile(np.arange(nx), ny)
    j = np.repeat(np.arange(ny), nx)
    r = grid.p_index(i, j) - grid.n_velocity
    cols = [
        grid.u_index(i + 1, j),
        grid.u_index(i, j),
        grid.v_index(i, j + 1),
        grid.v_index(i, j),
    ]
    vals = [
        np.full(r.size, 1.0 / grid.dx),
        np.full(r.size, -1.0 / grid.dx),
        np.full(r.size, 1.0 / grid.dy),
        np.full(r.size, -1.0 / grid.dy),
    ]
    return _csr([r, r, r, r], cols, vals, (grid.n_p, grid.n_velocity))


def drag_coefficients(grid: StaggeredGrid, kstar: NormalizedPermeability) -> np.ndarray:
    """Per-face inverse permeability 1/K* (diagonal of the drag block).

    Faces between two cells use the harmonic mean of the adjacent cell
    values; domain-boundary faces use the single adjacent cell.
    """
    nx, ny = grid.nx, grid.ny
    kxx = np.asarray(kstar.kstar_xx, dtype=float)
    kyy = np.asarray(kstar.kstar_yy, dtype=float)
    if kxx.size != grid.n_p or kyy.size != grid.n_p:
        raise InvalidFieldError(f"normalized field sized for {kxx.size} cells, grid has {grid.n_p}")
    if np.any(kxx <= 0.0) or np.any(kyy <= 0.0) or not (
        np.all(np.isfinite(kxx)) and np.all(np.isfinite(kyy))
    ):
        raise InvalidFieldError("singular drag: normalized permeability must be positive and finite")

    kxx2 = kxx.reshape(ny, nx)
    kyy2 = kyy.reshape(ny, nx)
    coeff = np.empty(grid.n_velocity)

    face_u = np.empty((ny, nx + 1))
    face_u[:, 0] = kxx2[:, 0]
    face_u[:, nx] = kxx2[:, nx - 1]
    if nx >= 2:
        a, b = kxx2[:, :-1], kxx2[:, 1:]
        face_u[:, 1:nx] = 2.0 * a * b / (a + b)
    coeff[: grid.n_u] = (1.0 / face_u).ravel()

    face_v = np.empty((ny + 1, nx))
    face_v[0, :] = kyy2[0, :]
    face_v[ny, :] = kyy2[ny - 1, :]
    if ny >= 2:
        a, b = kyy2[:-1, :], kyy2[1:, :]
        face_v[1:ny, :] = 2.0 * a * b / (a + b)
    coeff[grid.n_u:] = (1.0 / face_v).ravel()
    return coeff


def assemble_drag(grid: StaggeredGrid, kstar: NormalizedPermeability) -> sp.csr_matrix:
    """Diagonal drag block over all velocity faces."""
    return sp.diags(drag_coefficients(grid, kstar), format="csr")


def boundary_values(grid: StaggeredGrid, bc: BoundaryData) -> np.ndarray:
    """Dirichlet data aligned with the boundary-normal velocity DOFs."""
    bc.validate_sizes(grid)
    g = np.zeros(grid.n_velocity)
    j = np.arange(grid.ny)
    g[grid.u_index(0, j)] = bc.u_left
    g[grid.u_index(grid.nx, j)] = bc.u_right
    i = np.arange(grid.nx)
    g[grid.v_index(i, 0)] = bc.v_bottom
    g[grid.v_index(i, grid.ny)] = bc.v_top
    return g


def assemble_monolithic(
    grid: StaggeredGrid,
    kstar: NormalizedPermeability,
    anna: float,
    bc: BoundaryData,
    forcing: ForcingField | None = None,
    pin_pressure: bool = False,
    include_drag: bool = True,
) -> MonolithicSystem:
    """Assemble the full saddle-point system for one value of anna.

    ``anna = 0`` is allowed and yields the pure-drag (Darcy) operator;
    ``include_drag=False`` drops the drag block (Stokes reference).  The
    two together leave no momentum operator and raise ``ValueError``.
    With ``pin_pressure`` the first pressure row is replaced by the
    identity (p_0 = 0), removing the constant-pressure nullspace.
    Raises :class:`NumericOverflowError` when finite inputs overflow an
    entry of the matrix or of the rhs.
    """
    if anna < 0.0:
        raise ValueError(f"anna must be >= 0, got {anna}")
    if anna == 0.0 and not include_drag:
        raise ValueError("anna = 0 with include_drag=False leaves no momentum operator")
    if forcing is None:
        forcing = ForcingField.zero(grid)
    if forcing.f_u.size != grid.n_u or forcing.f_v.size != grid.n_v:
        raise ValueError("forcing field sized for a different grid")

    nv = grid.n_velocity
    with np.errstate(over="ignore"):  # an overflowed entry is named below
        momentum = (-anna) * assemble_laplacian(grid)
    if include_drag:
        momentum = momentum + assemble_drag(grid, kstar)
    blocks = sp.bmat([[momentum, assemble_gradient(grid)], [assemble_divergence(grid), None]])

    # rows replaced by the identity: boundary-normal faces and the pin
    fixed = np.zeros(grid.n_total, dtype=bool)
    fixed[:nv] = boundary_velocity_mask(grid)
    fixed[nv] = pin_pressure  # first pressure DOF: p_0 = 0
    matrix = sp.diags((~fixed).astype(float)) @ blocks + sp.diags(fixed.astype(float))
    matrix.sort_indices()  # the sparse product and sum do not promise sorted indices

    g = boundary_values(grid, bc)
    with np.errstate(over="ignore", invalid="ignore"):
        source = np.concatenate([forcing.f_u, forcing.f_v]) + anna * laplacian_boundary_term(grid, bc)
    rhs = np.zeros(grid.n_total)
    rhs[:nv] = np.where(fixed[:nv], g, source)
    if not np.isfinite(matrix.data).all():
        raise NumericOverflowError(f"anna = {anna:.5e} overflows the matrix in double precision")
    if not np.isfinite(rhs).all():
        raise NumericOverflowError(
            f"the rhs overflows double precision (anna = {anna:.5e}, "
            f"largest wall value {float(np.abs(g).max()):.5e})")

    warnings = []
    flux = bc.net_flux(grid)
    scale = max(1.0, float(np.abs(g).max()))
    if not pin_pressure and abs(flux) > COMPATIBILITY_TOL * scale:
        warnings.append(
            f"boundary data has net flux {flux:.3e}; the unpinned system is "
            "singular and solvable only for compatible right-hand sides"
        )
    return MonolithicSystem(matrix, rhs, warnings)
