"""Heterogeneous anisotropic permeability fields (cell-centered diagonal tensor).

Fields store the two diagonal components kxx and kyy per cell, flattened
in the grid's row-major, j-outer order.  Only diagonal tensors are
supported.  Synthetic generators produce the high-contrast layouts used
by the regime studies; the exact spatial layout is an explicit stand-in,
only the contrast is controlled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text
from .grid import StaggeredGrid

PATTERNS = ("layered", "checkerboard", "lognormal")


class InvalidFieldError(ValueError):
    """Permeability entries are non-positive or non-finite, or the grid is
    too small to realize the requested contrast."""


class FieldFormatError(ValueError):
    """A field file does not match the expected text format."""


def _validated_component(values, n_p: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float).ravel()
    if arr.size != n_p:
        raise InvalidFieldError(f"{name} has {arr.size} entries, expected {n_p}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidFieldError(f"{name} must be strictly positive and finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PermeabilityField:
    """Cell-centered diagonal permeability tensor (kxx, kyy), length n_p each."""

    kxx: np.ndarray
    kyy: np.ndarray

    def __post_init__(self):
        n = len(np.asarray(self.kxx).ravel())
        object.__setattr__(self, "kxx", _validated_component(self.kxx, n, "kxx"))
        object.__setattr__(self, "kyy", _validated_component(self.kyy, n, "kyy"))

    @property
    def contrast_x(self) -> float:
        return float(self.kxx.max() / self.kxx.min())

    @property
    def contrast_y(self) -> float:
        return float(self.kyy.max() / self.kyy.min())


@dataclass(frozen=True)
class NormalizedPermeability:
    """Dimensionless permeability K* = K / kmax; the largest entry is exactly 1."""

    kstar_xx: np.ndarray
    kstar_yy: np.ndarray
    kmax: float

    def __post_init__(self):
        for name in ("kstar_xx", "kstar_yy"):
            arr = np.asarray(getattr(self, name), dtype=float).ravel()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def normalize(field: PermeabilityField) -> NormalizedPermeability:
    """Divide both components by the largest entry of the whole tensor."""
    kmax = float(max(field.kxx.max(), field.kyy.max()))
    return NormalizedPermeability(field.kxx / kmax, field.kyy / kmax, kmax)


def uniform_kstar(grid: StaggeredGrid) -> NormalizedPermeability:
    """Normalized field with K* identically 1."""
    ones = np.ones(grid.n_p)
    return NormalizedPermeability(ones, ones.copy(), 1.0)


def generate_contrast_field(
    grid: StaggeredGrid,
    contrast_x: float,
    contrast_y: float,
    pattern: str = "layered",
    seed: int = 0,
) -> PermeabilityField:
    """Manufacture a field whose kxx and kyy contrasts hit the requested values.

    Patterns
    --------
    layered      log-graded stratification: one band per grid row in kxx
                 (per column in kyy), band permeabilities log-spaced from
                 contrast down to 1 (seed-free)
    checkerboard complementary two-valued checkerboards
    lognormal    seeded per-cell draw, log-range rescaled to the contrast

    All patterns place their values in [1, contrast] with both extremes
    attained, so max/min equals the requested contrast exactly.
    Two-valued layer alternation clusters the drag spectrum and masks the
    Krylov regime transition; the graded bands keep it spread.
    """
    if contrast_x < 1.0 or contrast_y < 1.0:
        raise ValueError(f"contrasts must be >= 1, got ({contrast_x}, {contrast_y})")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}, expected one of {PATTERNS}")

    nx, ny = grid.nx, grid.ny
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ii = ii.ravel()
    jj = jj.ravel()

    def _two_level(mask_high: np.ndarray, contrast: float, axis: str) -> np.ndarray:
        if contrast == 1.0:
            return np.ones(grid.n_p)
        if not (mask_high.any() and (~mask_high).any()):
            raise InvalidFieldError(f"grid too small to realize contrast {contrast} in {axis}")
        return np.where(mask_high, contrast, 1.0)

    if pattern == "layered":
        kxx = _graded_bands(ny, contrast_x, "x")[jj]
        kyy = _graded_bands(nx, contrast_y, "y")[ii]
    elif pattern == "checkerboard":
        kxx = _two_level((ii + jj) % 2 == 0, contrast_x, "x")
        kyy = _two_level((ii + jj) % 2 == 1, contrast_y, "y")
    else:
        rng = np.random.default_rng(seed)
        kxx = _log_rescaled(rng.standard_normal(grid.n_p), contrast_x, "x")
        kyy = _log_rescaled(rng.standard_normal(grid.n_p), contrast_y, "y")
    return PermeabilityField(kxx, kyy)


def _graded_bands(n_bands: int, contrast: float, axis: str) -> np.ndarray:
    if contrast == 1.0:
        return np.ones(n_bands)
    if n_bands < 2:
        raise InvalidFieldError(f"grid too small to realize contrast {contrast} in {axis}")
    t = np.linspace(1.0, 0.0, n_bands)
    vals = np.exp(np.log(contrast) * t)
    vals[0] = contrast  # pin the extremes: contrast is exact
    vals[-1] = 1.0
    return vals


def _log_rescaled(z: np.ndarray, contrast: float, axis: str) -> np.ndarray:
    if contrast == 1.0:
        return np.ones(z.size)
    span = z.max() - z.min()
    if span == 0.0:
        raise InvalidFieldError(f"grid too small to realize contrast {contrast} in {axis}")
    t = (z - z.min()) / span
    k = np.exp(np.log(contrast) * t)
    k[np.argmax(k)] = contrast
    k[np.argmin(k)] = 1.0
    return k


def write_field(path, grid: StaggeredGrid, field: PermeabilityField) -> None:
    """Write a field file: header ``nx ny``, then one ``kxx kyy`` line per cell."""
    lines = [f"{grid.nx} {grid.ny}"]
    lines.extend(f"{a:.17g} {b:.17g}" for a, b in zip(field.kxx, field.kyy))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_field(path, grid: StaggeredGrid) -> PermeabilityField:
    """Read a field file written by :func:`write_field` (row-major, j outer)."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.strip() for ln in fh]
    rows = [r for r in rows if r and not r.startswith("#")]
    if not rows:
        raise FieldFormatError(f"{path}: empty field file")
    head = rows[0].split()
    if len(head) != 2:
        raise FieldFormatError(f"{path}: header must be 'nx ny', got {rows[0]!r}")
    try:
        nx, ny = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FieldFormatError(f"{path}: non-integer header {rows[0]!r}") from exc
    if (nx, ny) != (grid.nx, grid.ny):
        raise FieldFormatError(f"{path}: field is {nx}x{ny}, grid is {grid.nx}x{grid.ny}")
    data = rows[1:]
    if len(data) != grid.n_p:
        raise FieldFormatError(f"{path}: expected {grid.n_p} data lines, found {len(data)}")
    kxx = np.empty(grid.n_p)
    kyy = np.empty(grid.n_p)
    for n, line in enumerate(data):
        parts = line.split()
        if len(parts) != 2:
            raise FieldFormatError(f"{path}: line {n + 2} must hold two numbers, got {line!r}")
        try:
            kxx[n], kyy[n] = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise FieldFormatError(f"{path}: line {n + 2} is not numeric: {line!r}") from exc
    return PermeabilityField(kxx, kyy)
