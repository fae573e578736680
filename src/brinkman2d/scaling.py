"""The dimensionless numbers of the Stokes-Brinkman model.

Physical reference values (length, viscosities, peak permeability)
collapse into the Darcy number ``Da = k_max / l_ref**2`` and the control
number ``anna = (mu_eff / mu) * Da`` that multiplies the viscous term of
the dimensionless momentum equation.  When ``mu_eff == mu`` the two
coincide.  The solver and its output files are dimensionless throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ConfigError


@dataclass(frozen=True)
class ReferenceScales:
    """Physical inputs: l_ref [m], mu and mu_eff [Pa s], k_max [m^2].

    Each must be positive and finite, else a :class:`ConfigError` names its
    ``scales.*`` key; so must Da, mu_eff/mu and anna, computed in double
    precision without raising (0 or inf), else it names ``scales.l_ref``."""

    l_ref: float
    mu: float
    mu_eff: float
    k_max: float

    def __post_init__(self):
        for name in ("l_ref", "mu", "mu_eff", "k_max"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"scales.{name}", f"must be positive and finite, got {v}")
        da, ratio = self.darcy, self.viscosity_ratio  # anna is ratio * da
        for name, v in {"Da": da, "mu_eff/mu": ratio, "anna": ratio * da}.items():
            if not 0.0 < v < math.inf:
                raise ConfigError("scales.l_ref",
                                  f"{name} = {v} under- or overflows double precision")

    @property
    def darcy(self) -> float:
        with np.errstate(over="ignore", divide="ignore"):
            return float(self.k_max / np.float64(self.l_ref) ** 2)  # C pow, as float **

    @property
    def viscosity_ratio(self) -> float:
        return self.mu_eff / self.mu

    @property
    def anna(self) -> float:
        return self.viscosity_ratio * self.darcy


#: Regime bounds in anna; the physical transition sits near anna = 1,
#: the two-decade margins on either side are an artifact choice.
DEFAULT_A_LOW = 1e-2
DEFAULT_A_HIGH = 1e2


def classify_regime(anna: float) -> str:
    """The name of the flow regime of a control number: ``"darcy"`` below
    ``DEFAULT_A_LOW``, ``"stokes"`` above ``DEFAULT_A_HIGH``,
    ``"brinkman"`` between them, bounds included."""
    if anna < DEFAULT_A_LOW:
        return "darcy"
    if anna > DEFAULT_A_HIGH:
        return "stokes"
    return "brinkman"


def check_da_values(da_values) -> tuple[float, ...]:
    """A Darcy-number sweep as floats: nonempty, finite, positive, strictly
    ascending, else a :class:`ConfigError` on ``sweep.da``."""
    da = tuple(float(v) for v in da_values)
    if not da:
        raise ConfigError("sweep.da", "Da list must be nonempty")
    if not all(math.isfinite(v) for v in da):
        raise ConfigError("sweep.da", "Da values must be finite")
    if any(v <= 0.0 for v in da):
        raise ConfigError("sweep.da", "Da values must be positive")
    if any(b <= a for a, b in zip(da, da[1:])):
        raise ConfigError("sweep.da", "Da values must be strictly ascending")
    return da
