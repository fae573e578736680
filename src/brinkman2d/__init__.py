"""2D staggered-grid finite-volume solver for the dimensionless
Stokes-Brinkman equations in heterogeneous anisotropic porous media.

Importing the package loads numpy only.  ``scipy.sparse`` is imported by
the functions that build or factor a sparse matrix, and
``scipy.sparse.linalg`` (SuperLU, ARPACK: ~10 MB resident) by the sparse
LU and the kappa runs alone.  So parsing a config, building grids and
fields, ``gen-field`` and every refused config run without scipy, and a
GMRES-only process never loads its linalg.
"""

from .analysis import (
    ConditionReport,
    ConvergenceStudy,
    LimitCheckReport,
    RegimeRow,
    SpectrumReport,
    UnsupportedSizeError,
    check_divergence,
    condition_number,
    eigen_spectrum,
    limit_checks,
    manufactured_run,
    sweep_darcy,
    write_regime_csv,
)
from .config import ConfigError, RunConfig, parse_config, write_config
from .discretization import (
    BoundaryData,
    MonolithicSystem,
    assemble_divergence,
    assemble_drag,
    assemble_gradient,
    assemble_laplacian,
    assemble_monolithic,
    laplacian_boundary_term,
)
from .grid import StaggeredGrid, build_grid
from .media import (
    InvalidFieldError,
    PermeabilityField,
    generate_contrast_field,
    load_field,
    normalize,
    uniform_kstar,
    write_field,
)
from .scaling import ReferenceScales, classify_regime
from .solvers import (
    SingularMatrixError,
    SolveReport,
    SolverConfig,
    direct_solve,
    gmres_solve,
)

__version__ = "0.1.0"
