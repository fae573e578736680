"""Small brinkman2d processes the benchmark spawns besides the CLI itself.

``python3 bench/probe.py setup CONFIG`` does the workload's set-up and
exits: import ``brinkman2d.cli``, ``parse_config``, ``build_grid``,
``generate_contrast_field`` and ``normalize``.  Its wall time from spawn
to exit is the ``setup_s`` sample.

``python3 bench/probe.py info CONFIG`` prints one JSON object with the
environment (package location, Python, numpy, scipy, BLAS) and the size
``n_total`` and ``nnz`` of the workload's system (the sparsity pattern
does not depend on the control number).
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys


def setup(config_path: str):
    from brinkman2d.cli import parse_config
    from brinkman2d.grid import build_grid
    from brinkman2d.media import generate_contrast_field, normalize

    config = parse_config(config_path)
    grid = build_grid(config.nx, config.ny)
    kstar = normalize(generate_contrast_field(
        grid, config.contrast_x, config.contrast_y, config.field_pattern, config.seed
    ))
    return config, grid, kstar


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded in this process, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def info(config_path: str) -> dict:
    import numpy as np
    import scipy

    import brinkman2d
    from brinkman2d.discretization import BoundaryData, assemble_monolithic

    config, grid, kstar = setup(config_path)
    bc = BoundaryData.uniform(grid, config.gx, config.gy)
    system = assemble_monolithic(grid, kstar, config.effective_anna(), bc,
                                 pin_pressure=config.pin_pressure)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "module": os.path.realpath(brinkman2d.__file__),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "n_total": int(grid.n_total),
        "nnz": int(system.matrix.nnz),
    }


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        print(json.dumps(info(sys.argv[2])))
