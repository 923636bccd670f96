"""2D discrete-time quantum walk with a single-qubit coin and tunable dephasing.

Trajectories evolve pure states with per-step random phase kicks; ensembles
average them with reproducible seeding; a dense density-matrix oracle
evolves the exact phase-averaged channel on small lattices for validation.
"""

from .analysis import (
    Distribution2D,
    axis_cuts,
    fit_localization,
    fit_scaling_exponent,
    variance_series,
)
from .disorder import (
    DisorderConfig,
    DisorderMode,
    PhaseMatrix,
    PhaseSampler,
    derive_trajectory_seed,
    trajectory_rng,
)
from .ensemble import merge_results, run_ensemble
from .errors import (
    AnalysisError,
    ConfigError,
    InvariantViolationError,
    LatticeOverflowError,
    PhaseCoverageError,
    QwalkError,
    TrajectoryFailure,
    UnsupportedModeError,
)
from .evolve import (
    DensityState,
    cross_site_coherence_factor,
    exact_run,
    exact_step_density,
    initial_density,
    run_trajectory,
    same_site_coherence_factor,
)
from .state import (
    COIN_H,
    COIN_V,
    WalkState,
    apply_coin,
    apply_dephasing,
    apply_shift_x,
    apply_shift_y,
    initial_state,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "COIN_H",
    "COIN_V",
    "ConfigError",
    "DensityState",
    "DisorderConfig",
    "DisorderMode",
    "Distribution2D",
    "InvariantViolationError",
    "LatticeOverflowError",
    "PhaseCoverageError",
    "PhaseMatrix",
    "PhaseSampler",
    "QwalkError",
    "TrajectoryFailure",
    "UnsupportedModeError",
    "WalkState",
    "apply_coin",
    "apply_dephasing",
    "apply_shift_x",
    "apply_shift_y",
    "axis_cuts",
    "cross_site_coherence_factor",
    "derive_trajectory_seed",
    "exact_run",
    "exact_step_density",
    "fit_localization",
    "fit_scaling_exponent",
    "initial_density",
    "initial_state",
    "merge_results",
    "run_ensemble",
    "run_trajectory",
    "same_site_coherence_factor",
    "trajectory_rng",
    "variance_series",
]
