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

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from ._util import NumericOverflowError, release_freed_heap
from .grid import StaggeredGrid, boundary_velocity_mask
from .media import InvalidFieldError, PermeabilityField


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet velocity data on the four walls, three finite numbers.

    Every wall carries g = (gx, gy): the normal component on the boundary
    faces, the tangential one as the wall trace the ghost reflection
    reads.  The top wall's tangential u is ``gx + lid`` (a sliding lid).
    """

    gx: float
    gy: float
    lid: float = 0.0

    def __post_init__(self):
        for name in ("gx", "gy", "lid"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"boundary data {name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    @classmethod
    def uniform(cls, grid: StaggeredGrid, gx: float, gy: float) -> "BoundaryData":
        """``BoundaryData(gx, gy)``; ``grid`` is not read.  Kept only for the
        benchmark harness (``bench/probe.py``, ``bench/test_bench.py``), which
        calls it with this signature."""
        return cls(gx, gy)


@dataclass
class MonolithicSystem:
    """Assembled saddle-point matrix and right-hand side."""

    matrix: sp.csr_matrix
    rhs: np.ndarray


def _csr(rows, cols, vals, shape) -> sp.csr_matrix:
    """Canonical CSR (duplicates summed, indices sorted, as ``tocsr`` returns
    it) from lists of triplet arrays."""
    import scipy.sparse as sp

    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsr()


def assemble_laplacian(grid: StaggeredGrid) -> sp.csr_matrix:
    """Five-point vector Laplacian on the u/v face lattices.

    Rows of boundary-normal faces are left empty (they become identity
    rows in the monolithic system).  Tangential walls are folded in by
    ghost reflection: the ghost unknown contributes -1/h^2 to the
    diagonal here and 2*g/h^2 to :func:`laplacian_boundary_term`.
    """
    nx, ny = grid.nx, grid.ny
    idx2, idy2 = 1.0 / grid.dx**2, 1.0 / grid.dy**2
    # per lattice: index map, the i and j of its rows, and its last i and j
    lattices = (
        (grid.u_index, np.arange(1, nx), np.arange(ny), nx, ny - 1),
        (grid.v_index, np.arange(nx), np.arange(1, ny), nx - 1, ny),
    )
    # the order -x, +x, -y, +y fixes the rounding of the ghost terms in the diagonal
    offsets = ((-1, 0, idx2), (1, 0, idx2), (0, -1, idy2), (0, 1, idy2))
    rows, cols, vals = [], [], []
    for index, i, j, last_i, last_j in lattices:
        i, j = (a.ravel() for a in np.meshgrid(i, j))
        r = index(i, j)
        diag = np.full(r.size, -2.0 * idx2 - 2.0 * idy2)
        for di, dj, weight in offsets:
            ni, nj = i + di, j + dj
            inside = (ni >= 0) & (ni <= last_i) & (nj >= 0) & (nj <= last_j)
            rows.append(r[inside])
            cols.append(index(ni[inside], nj[inside]))
            vals.append(np.full(np.count_nonzero(inside), weight))
            diag[~inside] -= weight  # ghost reflection at a tangential wall
        rows.append(r)
        cols.append(r)
        vals.append(diag)
    return _csr(rows, cols, vals, (grid.n_velocity, grid.n_velocity))


def laplacian_boundary_term(grid: StaggeredGrid, bc: BoundaryData) -> np.ndarray:
    """Ghost-cell data vector paired with :func:`assemble_laplacian`.

    The discrete Laplacian of the true field at a wall-adjacent face is
    (L u)_row + term_row with term_row = 2*g_wall/h^2.
    """
    nx, ny = grid.nx, grid.ny
    idx2, idy2 = 1.0 / grid.dx**2, 1.0 / grid.dy**2
    vec = np.zeros(grid.n_velocity)
    i = np.arange(1, nx)
    np.add.at(vec, grid.u_index(i, 0), 2.0 * idy2 * bc.gx)
    np.add.at(vec, grid.u_index(i, ny - 1), 2.0 * idy2 * (bc.gx + bc.lid))
    j = np.arange(1, ny)
    np.add.at(vec, grid.v_index(0, j), 2.0 * idx2 * bc.gy)
    np.add.at(vec, grid.v_index(nx - 1, j), 2.0 * idx2 * bc.gy)
    return vec


def assemble_gradient(grid: StaggeredGrid) -> sp.csr_matrix:
    """Pressure gradient onto interior faces, ``-D^T`` for the divergence
    ``D``; boundary-normal rows empty."""
    div = assemble_divergence(grid).tocoo()
    keep = ~boundary_velocity_mask(grid)[div.col]
    return _csr([div.col[keep]], [div.row[keep]], [-div.data[keep]], (grid.n_velocity, grid.n_p))


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


def _harmonic_faces(k: np.ndarray) -> np.ndarray:
    """Values on the faces across the rows of ``k``: the harmonic mean of
    the two adjacent rows between them, the adjacent row at both ends.

    Each mean ``2ab/(a+b)`` is taken on ``a`` and ``b`` divided by the exact
    power of two halfway between their exponents, and multiplied back, so
    ``ab`` lies near 1.  For two normal doubles less than 2^2042 apart no
    step is then subnormal or infinite, and the mean has the bits of double
    arithmetic with an unbounded exponent wherever it is a normal double."""
    faces = np.empty((k.shape[0] + 1, k.shape[1]))
    faces[0], faces[-1] = k[0], k[-1]
    a, b = k[:-1], k[1:]
    e = (np.frexp(a)[1] + np.frexp(b)[1]) // 2
    a, b = np.ldexp(a, -e), np.ldexp(b, -e)
    faces[1:-1] = np.ldexp(2.0 * a * b / (a + b), e)
    return faces


def drag_coefficients(grid: StaggeredGrid, kstar: PermeabilityField) -> np.ndarray:
    """Per-face inverse permeability 1/K* (diagonal of the drag block).

    Faces between two cells use the harmonic mean of the adjacent cell
    values; domain-boundary faces use the single adjacent cell.  Raises
    :class:`NumericOverflowError` when a face value is below ~5.6e-309,
    1 / the largest double, so that its drag is infinite: a face next to a
    cell at K* = 1e-310, say, which a field whose largest entry is 1e310
    times its smallest holds.
    """
    if kstar.kxx.size != grid.n_p:
        raise InvalidFieldError(
            f"normalized field sized for {kstar.kxx.size} cells, grid has {grid.n_p}")
    face_u = _harmonic_faces(kstar.kxx.reshape(grid.ny, grid.nx).T).T
    face_v = _harmonic_faces(kstar.kyy.reshape(grid.ny, grid.nx))
    with np.errstate(divide="ignore", over="ignore"):  # an infinite drag is named below
        drag = 1.0 / np.concatenate([face_u.ravel(), face_v.ravel()])
    infinite = np.count_nonzero(np.isinf(drag))
    if infinite:
        smallest = min(kstar.kxx.min(), kstar.kyy.min())
        raise NumericOverflowError(
            f"the drag 1/K* overflows double precision on {infinite} faces "
            f"(the field's smallest normalized K* is {smallest:.5e})")
    return drag


def assemble_drag(grid: StaggeredGrid, kstar: PermeabilityField) -> sp.csr_matrix:
    """Diagonal drag block over all velocity faces."""
    import scipy.sparse as sp

    return sp.diags(drag_coefficients(grid, kstar), format="csr")


def assemble_monolithic(
    grid: StaggeredGrid,
    kstar: PermeabilityField,
    anna: float,
    bc: BoundaryData,
    forcing: np.ndarray | None = None,
    pin_pressure: bool = False,
    include_drag: bool = True,
) -> MonolithicSystem:
    """Assemble the full saddle-point system for one value of anna.

    ``anna = 0`` is allowed and yields the pure-drag (Darcy) operator;
    ``include_drag=False`` drops the drag block (Stokes reference).  The
    two together leave no momentum operator and raise ``ValueError``.
    With ``pin_pressure`` the first pressure row is replaced by the
    identity (p_0 = 0), removing the constant-pressure nullspace.
    ``forcing`` holds one force density per velocity face, u faces then
    v faces; without it the momentum equations are unforced.  Every
    :class:`BoundaryData` puts equal normal data on opposite walls, so the
    net boundary flux is zero and the unpinned system is consistent.
    Raises :class:`NumericOverflowError` when finite inputs overflow an
    entry of the matrix or of the rhs.
    """
    import scipy.sparse as sp

    if anna < 0.0:
        raise ValueError(f"anna must be >= 0, got {anna}")
    if anna == 0.0 and not include_drag:
        raise ValueError("anna = 0 with include_drag=False leaves no momentum operator")
    nv = grid.n_velocity
    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        if forcing.shape != (nv,):
            raise ValueError(f"forcing has shape {forcing.shape}, expected ({nv},)")
        if not np.isfinite(forcing).all():
            raise ValueError("forcing must be finite")

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
    del momentum, blocks  # freed before the heap is released on return

    g = np.repeat([bc.gx, bc.gy], [grid.n_u, grid.n_v])  # read on the fixed faces only
    with np.errstate(over="ignore", invalid="ignore"):
        source = anna * laplacian_boundary_term(grid, bc)
        source += 0.0 if forcing is None else forcing  # + 0.0 turns a -0.0 into 0.0
    rhs = np.zeros(grid.n_total)
    rhs[:nv] = np.where(fixed[:nv], g, source)
    if not np.isfinite(matrix.data).all():
        raise NumericOverflowError(f"anna = {anna:.5e} overflows the matrix in double precision")
    if not np.isfinite(rhs).all():
        wall = max(abs(bc.gx), abs(bc.gy), abs(bc.gx + bc.lid))  # the values the rhs reads
        raise NumericOverflowError(f"the rhs overflows double precision (anna = {anna:.5e}, "
                                   f"largest wall value {wall:.5e})")
    release_freed_heap()
    return MonolithicSystem(matrix, rhs)
