"""dwcross: bound-state spectra and avoided crossings of 1D double wells.

Analytic characteristic equations for four solvable double-well variants,
a bracketing root solver, a finite-difference/Sturm-sequence oracle that
independently validates every level, and parameter-sweep machinery that
locates and refines avoided crossings.
"""

from .models import (
    M1Params,
    M2Params,
    M3Params,
    M4Params,
    ModelParams,
    UnitsConfig,
    characteristic,
)
from .oracle import OracleConfig, oracle_levels, wronskian_constancy
from .rootfind import RootfindConfig, solve_levels
from .sweep import (
    AvoidedCrossing,
    SpectrumTable,
    SweepSpec,
    detect_avoided_crossings,
    effective_levels,
    gap_curves,
    sweep_levels,
)

__version__ = "0.1.0"

# The one kernel implementation (numpy and plain Python), by name, for
# run records that note what they measured.
kernel_backend = "pure"

__all__ = [
    "kernel_backend",
    "UnitsConfig",
    "M1Params",
    "M2Params",
    "M3Params",
    "M4Params",
    "ModelParams",
    "characteristic",
    "RootfindConfig",
    "solve_levels",
    "OracleConfig",
    "oracle_levels",
    "wronskian_constancy",
    "SweepSpec",
    "SpectrumTable",
    "AvoidedCrossing",
    "sweep_levels",
    "gap_curves",
    "detect_avoided_crossings",
    "effective_levels",
    "__version__",
]
