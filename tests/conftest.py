import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from brinkman2d import (
    BoundaryData,
    SolverConfig,
    build_grid,
    generate_contrast_field,
    sweep_darcy,
)

#: Replication settings for the regime sweep: 20x20 grid, layered field
#: with contrast 1e5 in each direction, tol 1e-6, maxit 1240, full GMRES,
#: viscosity ratio 1, Da covering 1e-5..1e5 in decades.
SWEEP_DA = tuple(float(v) for v in np.logspace(-5, 5, 11))
SWEEP_TOL = 1e-6


@pytest.fixture(scope="session")
def regime_sweep():
    """The canonical high-contrast sweep; computed once per session."""
    grid = build_grid(20, 20)
    field = generate_contrast_field(grid, 1e5, 1e5, "layered", 0)
    bc = BoundaryData.uniform(grid, 1.0, 0.0)
    config = SolverConfig(tol=SWEEP_TOL, maxit=1240)
    return sweep_darcy(grid, field, SWEEP_DA, 1.0, bc, config, pin_pressure=False)


@pytest.fixture
def splu_calls(monkeypatch):
    """Every ``scipy.sparse.linalg.splu`` call from here on, as the name of
    the calling function and the keyword arguments."""
    calls = []
    splu = spla.splu

    def recording(*args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, kwargs))
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    return calls
