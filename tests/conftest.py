import ctypes
import glob
import os
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from brinkman2d import (
    BoundaryData,
    SolverConfig,
    build_grid,
    generate_contrast_field,
    normalize,
    sweep_darcy,
)
from brinkman2d.config import parse_config_text

#: Replication settings for the regime sweep: 20x20 grid, layered field
#: with contrast 1e5 in each direction, tol 1e-6, maxit 1240, full GMRES,
#: Da (= anna) covering 1e-5..1e5 in decades, as the CLI parses
#: ``sweep.da = logspace:-5,5,11``.
SWEEP_DA = parse_config_text(
    "grid.nx = 20\ngrid.ny = 20\nanna = 1.0\nfield.pattern = layered\n"
    "sweep.da = logspace:-5,5,11\n"
).da_values
SWEEP_TOL = 1e-6


def blas_info() -> str:
    """The core and thread count of the OpenBLAS bundled with numpy, read
    through ctypes, or "unknown" where that library or its symbols are
    absent.  The byte pins hold on one core and thread split: OpenBLAS sums
    in another order on another, which moves the last digits of a relres."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*")
    try:
        lib = ctypes.CDLL(sorted(glob.glob(pattern))[0])
        corename = lib.scipy_openblas_get_corename64_
        threads = lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
    return f"OpenBLAS core {corename().decode()}, {threads()} threads"


def thp_mode() -> str:
    """The host's transparent huge-page mode, the bracketed word of
    ``/sys/kernel/mm/transparent_hugepage/enabled``, or "unknown" where that
    file is absent.  Peak-RSS figures hold under one mode: under ``always``
    the kernel may back the GMRES workspace with 2 MB pages whatever numpy
    advises."""
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled", encoding="ascii") as fh:
            text = fh.read()
    except OSError:
        return "unknown"
    start, end = text.find("["), text.find("]")
    return text[start + 1: end] if 0 <= start < end else "unknown"


def pytest_report_header(config):
    return f"blas: {blas_info()}; thp: {thp_mode()}"


@pytest.fixture(scope="session")
def regime_sweep():
    """The canonical high-contrast sweep; computed once per session."""
    grid = build_grid(20, 20)
    field = generate_contrast_field(grid, 1e5, 1e5, "layered", 0)
    bc = BoundaryData(1.0, 0.0)
    config = SolverConfig(tol=SWEEP_TOL, maxit=1240)
    return sweep_darcy(grid, normalize(field), SWEEP_DA, bc, config, pin_pressure=False)


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
