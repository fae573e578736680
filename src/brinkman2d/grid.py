"""Staggered (MAC) grid geometry and global indexing of the unknowns.

Pressures live at cell centers, x-velocities (u) on vertical faces and
y-velocities (v) on horizontal faces.  Boundary faces are kept as
unknowns; they receive identity rows when the monolithic system is
assembled.  The global vector is ordered in contiguous blocks
``[u, v, p]``, each block row-major with j outer and i fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StaggeredGrid:
    """Uniform MAC grid with nx-by-ny cells (each >= 1) on the unit
    square, the non-dimensional domain of the model."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"cell counts must be >= 1, got nx={self.nx}, ny={self.ny}")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dy(self) -> float:
        return 1.0 / self.ny

    @property
    def n_u(self) -> int:
        """u-velocity unknowns on vertical faces, boundary faces included."""
        return (self.nx + 1) * self.ny

    @property
    def n_v(self) -> int:
        """v-velocity unknowns on horizontal faces, boundary faces included."""
        return self.nx * (self.ny + 1)

    @property
    def n_p(self) -> int:
        return self.nx * self.ny

    @property
    def n_velocity(self) -> int:
        return self.n_u + self.n_v

    @property
    def n_total(self) -> int:
        return self.n_u + self.n_v + self.n_p

    # Index maps, vectorised over i and j and unchecked.
    def u_index(self, i, j):
        return j * (self.nx + 1) + i

    def v_index(self, i, j):
        return self.n_u + j * self.nx + i

    def p_index(self, i, j):
        return self.n_u + self.n_v + j * self.nx + i

    def _coords(self, ni: int, nj: int, ox: float, oy: float):
        """(x, y) of an ni-by-nj lattice offset by (ox, oy) cells, j outer."""
        jj, ii = (a.ravel() for a in np.meshgrid(np.arange(nj), np.arange(ni), indexing="ij"))
        return (ii + ox) * self.dx, (jj + oy) * self.dy

    def u_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) of every u-face in global u-block order."""
        return self._coords(self.nx + 1, self.ny, 0.0, 0.5)

    def v_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) of every v-face in global v-block order."""
        return self._coords(self.nx, self.ny + 1, 0.5, 0.0)

    def p_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) of every cell center in global p-block order."""
        return self._coords(self.nx, self.ny, 0.5, 0.5)


def build_grid(nx: int, ny: int) -> StaggeredGrid:
    """Build a uniform staggered grid with nx-by-ny cells."""
    return StaggeredGrid(int(nx), int(ny))


def boundary_velocity_mask(grid: StaggeredGrid) -> np.ndarray:
    """Boolean mask over the velocity block marking boundary-normal faces."""
    mask = np.zeros(grid.n_velocity, dtype=bool)
    j = np.arange(grid.ny)
    mask[grid.u_index(0, j)] = True
    mask[grid.u_index(grid.nx, j)] = True
    i = np.arange(grid.nx)
    mask[grid.v_index(i, 0)] = True
    mask[grid.v_index(i, grid.ny)] = True
    return mask
