"""Heterogeneous anisotropic permeability fields (cell-centered diagonal tensor).

Fields store the two diagonal components kxx and kyy per cell, flattened
in the grid's row-major, j-outer order.  Only diagonal tensors are
supported.  The one type, :class:`PermeabilityField`, holds both K and
the dimensionless K* = K / kmax that :func:`normalize` returns, so K* is
validated when it is built.  Synthetic generators produce the
high-contrast layouts used by the regime studies; the exact spatial
layout is an explicit stand-in, only the contrast is controlled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import NumericOverflowError, atomic_write_text, read_utf8_text
from .grid import StaggeredGrid

PATTERNS = ("layered", "checkerboard", "lognormal")


class InvalidFieldError(ValueError):
    """A field that cannot be read or built: a field file that does not
    match the text format, an entry that is not positive and finite, or a
    grid too small for the requested contrast (or not the field's size)."""


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


def normalize(field: PermeabilityField) -> PermeabilityField:
    """K* = K / kmax: both components divided by the largest entry of the
    whole tensor, so the largest K* entry is exactly 1.  Raises
    :class:`NumericOverflowError` when a K* entry underflows to 0, as one
    below half the smallest subnormal (~2.5e-324) does."""
    kmax = max(field.kxx.max(), field.kyy.max())
    kxx, kyy = field.kxx / kmax, field.kyy / kmax
    underflows = np.count_nonzero((kxx == 0.0) | (kyy == 0.0))
    if underflows:
        raise NumericOverflowError(
            f"K* = K / kmax underflows double precision on {underflows} cells "
            f"(kmax = {kmax:.5e}, the field's smallest K is "
            f"{min(field.kxx.min(), field.kyy.min()):.5e})")
    return PermeabilityField(kxx, kyy)


def uniform_kstar(grid: StaggeredGrid) -> PermeabilityField:
    """K* identically 1."""
    return PermeabilityField(np.ones(grid.n_p), np.ones(grid.n_p))


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
        raise InvalidFieldError(f"contrasts must be >= 1, got ({contrast_x}, {contrast_y})")
    if pattern not in PATTERNS:
        raise InvalidFieldError(f"unknown pattern {pattern!r}, expected one of {PATTERNS}")

    ii, jj = (a.ravel() for a in np.meshgrid(np.arange(grid.nx), np.arange(grid.ny)))
    if pattern == "layered":
        tx = np.linspace(1.0, 0.0, grid.ny)[jj]
        ty = np.linspace(1.0, 0.0, grid.nx)[ii]
    elif pattern == "checkerboard":
        tx = ((ii + jj) % 2 == 0).astype(float)
        ty = ((ii + jj) % 2 == 1).astype(float)
    else:
        rng = np.random.default_rng(seed)
        tx = _unit_range(rng.standard_normal(grid.n_p))
        ty = _unit_range(rng.standard_normal(grid.n_p))
    return PermeabilityField(_log_graded(tx, contrast_x, "x"), _log_graded(ty, contrast_y, "y"))


def _unit_range(z: np.ndarray) -> np.ndarray:
    """``z`` mapped affinely onto [0, 1]; all zeros when ``z`` is constant."""
    span = z.max() - z.min()
    return (z - z.min()) / span if span else np.zeros(z.size)


def _log_graded(t: np.ndarray, contrast: float, axis: str) -> np.ndarray:
    """Permeabilities log-spaced from 1 (``t = 0``) to ``contrast``
    (``t = 1``), both ends exact; raises when a contrast above 1 has ``t``
    miss either end."""
    if contrast > 1.0 and not ((t == 0.0).any() and (t == 1.0).any()):
        raise InvalidFieldError(f"grid too small to realize contrast {contrast} in {axis}")
    return np.where(t == 1.0, contrast, np.where(t == 0.0, 1.0, np.exp(np.log(contrast) * t)))


def write_field(path, grid: StaggeredGrid, field: PermeabilityField) -> None:
    """Write a field file: header ``nx ny``, then one ``kxx kyy`` line per cell."""
    lines = [f"{grid.nx} {grid.ny}"]
    lines.extend(f"{a:.17g} {b:.17g}" for a, b in zip(field.kxx, field.kyy))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_field(path, grid: StaggeredGrid) -> PermeabilityField:
    """Read a field file written by :func:`write_field` (row-major, j outer)."""
    try:
        text = read_utf8_text(path)
    except UnicodeDecodeError as exc:
        raise InvalidFieldError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    rows = [(number, r) for number, r in enumerate(map(str.strip, text.split("\n")), 1)
            if r and not r.startswith("#")]
    if not rows:
        raise InvalidFieldError(f"{path}: empty field file")
    (_, header), data = rows[0], rows[1:]
    head = header.split()
    if len(head) != 2:
        raise InvalidFieldError(f"{path}: header must be 'nx ny', got {header!r}")
    try:
        nx, ny = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InvalidFieldError(f"{path}: non-integer header {header!r}") from exc
    if (nx, ny) != (grid.nx, grid.ny):
        raise InvalidFieldError(f"{path}: field is {nx}x{ny}, grid is {grid.nx}x{grid.ny}")
    if len(data) != grid.n_p:
        raise InvalidFieldError(f"{path}: expected {grid.n_p} data lines, found {len(data)}")
    kxx = np.empty(grid.n_p)
    kyy = np.empty(grid.n_p)
    for n, (number, line) in enumerate(data):
        parts = line.split()
        if len(parts) != 2:
            raise InvalidFieldError(f"{path}: line {number} must hold two numbers, got {line!r}")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise InvalidFieldError(f"{path}: line {number} is not numeric: {line!r}") from exc
        if not (0.0 < a < np.inf and 0.0 < b < np.inf):  # nan fails both comparisons
            raise InvalidFieldError(
                f"{path}: line {number} must hold two positive finite numbers, got {line!r}")
        kxx[n], kyy[n] = a, b
    return PermeabilityField(kxx, kyy)
