"""2D discrete-time quantum walk with a single-qubit coin and tunable dephasing.

Trajectories evolve pure states with per-step random phase kicks; ensembles
average them with reproducible seeding; a dense density-matrix oracle
evolves the exact phase-averaged channel on small lattices for validation.
"""

from .analysis import (
    AxisCuts,
    Distribution2D,
    LocalizationFit,
    ScalingFit,
    axis_cuts,
    fit_localization,
    fit_scaling_exponent,
    mean_position,
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
from .ensemble import EnsembleResult, merge_results, run_ensemble
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
    ExactRunResult,
    TrajectoryResult,
    basis_index,
    cross_site_coherence_factor,
    density_from_state,
    exact_run,
    exact_step_density,
    initial_density,
    run_trajectory,
    same_site_coherence_factor,
    step,
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
    "AxisCuts",
    "AnalysisError",
    "COIN_H",
    "COIN_V",
    "ConfigError",
    "DensityState",
    "DisorderConfig",
    "DisorderMode",
    "Distribution2D",
    "EnsembleResult",
    "ExactRunResult",
    "InvariantViolationError",
    "LatticeOverflowError",
    "LocalizationFit",
    "PhaseCoverageError",
    "PhaseMatrix",
    "PhaseSampler",
    "QwalkError",
    "ScalingFit",
    "TrajectoryFailure",
    "TrajectoryResult",
    "UnsupportedModeError",
    "WalkState",
    "apply_coin",
    "apply_dephasing",
    "apply_shift_x",
    "apply_shift_y",
    "axis_cuts",
    "basis_index",
    "cross_site_coherence_factor",
    "density_from_state",
    "derive_trajectory_seed",
    "exact_run",
    "exact_step_density",
    "fit_localization",
    "fit_scaling_exponent",
    "initial_density",
    "initial_state",
    "mean_position",
    "merge_results",
    "run_ensemble",
    "run_trajectory",
    "same_site_coherence_factor",
    "step",
    "trajectory_rng",
    "variance_series",
]
