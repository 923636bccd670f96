"""2D discrete-time quantum walk with a single-qubit coin and tunable dephasing.

Trajectories evolve pure states with per-step random phase kicks; ensembles
average them with reproducible seeding; a dense density-matrix oracle
evolves the exact phase-averaged channel on small lattices for validation.

The top level holds the library API: run a walk, analyse its results,
and catch its errors.  The step kernels live in qwalk2d.state, the
phase sampler in qwalk2d.disorder and the full-grid oracle step in
qwalk2d.evolve.
"""

from .analysis import (
    Distribution2D,
    axis_cuts,
    fit_localization,
    fit_scaling_exponent,
    variance_series,
)
from .disorder import DisorderConfig, DisorderMode
from .ensemble import run_ensemble
from .errors import (
    AnalysisError,
    ConfigError,
    InvariantViolationError,
    QwalkError,
    TrajectoryFailure,
    UnsupportedModeError,
)
from .evolve import exact_run, run_trajectory

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "ConfigError",
    "DisorderConfig",
    "DisorderMode",
    "Distribution2D",
    "InvariantViolationError",
    "QwalkError",
    "TrajectoryFailure",
    "UnsupportedModeError",
    "axis_cuts",
    "exact_run",
    "fit_localization",
    "fit_scaling_exponent",
    "run_ensemble",
    "run_trajectory",
    "variance_series",
]
