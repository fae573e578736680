"""Nondimensionalization of the Stokes-Brinkman model.

Physical reference values (length, velocity, viscosities, peak
permeability) collapse into two numbers: the Darcy number
``Da = k_max / l_ref**2`` and the control number
``anna = (mu_eff / mu) * Da`` that multiplies the viscous term of the
dimensionless momentum equation.  When ``mu_eff == mu`` the two
coincide.  The pressure scale is ``p_scale = l_ref * u_ref * mu / k_max``.

The solver itself works entirely in dimensionless variables; units only
matter here, at the boundary between physics and numerics, and are
carried as documentation rather than enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import StaggeredGrid


@dataclass(frozen=True)
class ReferenceScales:
    """Physical inputs: l_ref [m], u_ref [m/s], mu and mu_eff [Pa s], k_max [m^2]."""

    l_ref: float
    u_ref: float
    mu: float
    mu_eff: float
    k_max: float

    def __post_init__(self):
        for name in ("l_ref", "u_ref", "mu", "mu_eff", "k_max"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class DimensionlessGroups:
    darcy: float
    viscosity_ratio: float
    anna: float
    p_scale: float


class Regime(Enum):
    DARCY = "darcy"
    BRINKMAN = "brinkman"
    STOKES = "stokes"


#: Default classification thresholds; the physical transition sits near
#: anna = 1, the decade margins on either side are an artifact choice.
DEFAULT_A_LOW = 1e-2
DEFAULT_A_HIGH = 1e2


def dimensionless_groups(scales: ReferenceScales) -> DimensionlessGroups:
    """Collapse physical reference values into Da, mu'/mu, anna and p_scale."""
    darcy = scales.k_max / scales.l_ref**2
    ratio = scales.mu_eff / scales.mu
    return DimensionlessGroups(
        darcy=darcy,
        viscosity_ratio=ratio,
        anna=ratio * darcy,
        p_scale=scales.l_ref * scales.u_ref * scales.mu / scales.k_max,
    )


def classify_regime(
    groups: DimensionlessGroups | float,
    a_low: float = DEFAULT_A_LOW,
    a_high: float = DEFAULT_A_HIGH,
) -> Regime:
    """Classify the flow regime from the control number.

    Accepts either a :class:`DimensionlessGroups` or a bare ``anna`` value.
    """
    if not a_low < a_high:
        raise ValueError(f"thresholds must satisfy a_low < a_high, got {a_low}, {a_high}")
    anna = groups.anna if isinstance(groups, DimensionlessGroups) else float(groups)
    if anna < a_low:
        return Regime.DARCY
    if anna > a_high:
        return Regime.STOKES
    return Regime.BRINKMAN


def check_da_values(da_values) -> tuple[float, ...]:
    """A Darcy-number sweep as floats: nonempty, positive, strictly ascending."""
    da = tuple(float(v) for v in da_values)
    if not da:
        raise ValueError("Da list must be nonempty")
    if any(v <= 0.0 for v in da):
        raise ValueError("Da values must be positive")
    if any(b <= a for a, b in zip(da, da[1:])):
        raise ValueError("Da values must be strictly ascending")
    return da


def _check_sizes(grid: StaggeredGrid, u_star, p_star) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u_star, dtype=float)
    p = np.asarray(p_star, dtype=float)
    if u.size != grid.n_velocity:
        raise ValueError(f"velocity field has {u.size} entries, expected {grid.n_velocity}")
    if p.size != grid.n_p:
        raise ValueError(f"pressure field has {p.size} entries, expected {grid.n_p}")
    return u, p


def redimensionalize(grid, u_star, p_star, scales: ReferenceScales):
    """Dimensionless solution -> (velocity [m/s], pressure [Pa])."""
    u, p = _check_sizes(grid, u_star, p_star)
    groups = dimensionless_groups(scales)
    return scales.u_ref * u, groups.p_scale * p


def nondimensionalize(grid, u, p, scales: ReferenceScales):
    """Inverse of :func:`redimensionalize`."""
    uu, pp = _check_sizes(grid, u, p)
    groups = dimensionless_groups(scales)
    return uu / scales.u_ref, pp / groups.p_scale
