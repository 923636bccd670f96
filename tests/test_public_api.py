"""The package's top level is the library API and nothing else."""

import qwalk2d

LIBRARY_API = {
    "DisorderConfig",
    "DisorderMode",
    "run_ensemble",
    "run_trajectory",
    "exact_run",
    "variance_series",
    "fit_scaling_exponent",
    "fit_localization",
    "axis_cuts",
    "Distribution2D",
    "QwalkError",
    "ConfigError",
    "UnsupportedModeError",
    "AnalysisError",
    "InvariantViolationError",
    "TrajectoryFailure",
}


def test_all_is_the_library_api():
    assert len(qwalk2d.__all__) == len(LIBRARY_API) == 16
    assert set(qwalk2d.__all__) == LIBRARY_API


def test_star_import_binds_exactly_the_library_api():
    namespace = {}
    exec("from qwalk2d import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == LIBRARY_API
