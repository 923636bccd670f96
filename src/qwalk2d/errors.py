"""Exception types shared across the package, and the one unit-total check."""

# largest deviation from 1 tolerated in a norm, trace or distribution total
UNIT_TOL = 1e-9


class QwalkError(Exception):
    """Base class for all package errors."""


class ConfigError(QwalkError, ValueError):
    """A run configuration value is invalid or inconsistent."""


class UnsupportedModeError(ConfigError):
    """The requested disorder mode is not supported by this engine."""


class AnalysisError(QwalkError, ValueError):
    """A fit or observable cannot be computed from the given data."""


class LatticeOverflowError(QwalkError, RuntimeError):
    """Amplitude would be shifted past the edge of the bounded grid."""


class PhaseCoverageError(QwalkError, RuntimeError):
    """A phase matrix does not cover the occupied sites of a state."""


class InvariantViolationError(QwalkError, RuntimeError):
    """A numerical invariant (norm, trace, normalization) drifted too far."""


class TrajectoryFailure(QwalkError, RuntimeError):
    """A trajectory inside an ensemble raised; the index is in the message."""


def check_unit_total(total, what: str) -> None:
    """Raise InvariantViolationError unless total lies within UNIT_TOL of 1.

    The test is `not abs(total - 1) <= UNIT_TOL`, so NaN and +-inf fail as
    well as drift.  what names the total and where it was taken.
    """
    if not abs(total - 1.0) <= UNIT_TOL:
        raise InvariantViolationError(f"{what} is {float(total)!r}, not 1 within {UNIT_TOL:g}")
