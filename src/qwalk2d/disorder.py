"""Random dephasing phases for the three disorder regimes.

Phases are drawn from the uniform law on [-zeta, zeta] (constant density
1/(2*zeta)).  Each realization owns an independent, reproducible random
stream derived from the master seed, so trajectories can run in any order
or in parallel without changing the result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, PhaseCoverageError

_MASK64 = (1 << 64) - 1


class DisorderMode(str, Enum):
    """How the per-site phase differences vary across sites and steps."""

    NONE = "none"
    DYNAMICAL_SPATIAL = "dynamical-spatial"    # fresh i.i.d. phase per site, redrawn every step
    STATIC_SPATIAL = "static-spatial"          # i.i.d. phase per site, frozen for the whole walk
    DYNAMICAL_UNIFORM = "dynamical-uniform"    # one shared phase per step, same at every site

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DisorderConfig:
    """Full description of one disorder experiment.

    zeta bounds the phases (0 <= zeta <= pi; pi is the maximal phase
    difference between the two polarizations), steps is the walk length N,
    realizations the ensemble size R, and master_seed the 64-bit root of
    all randomness.
    """

    mode: DisorderMode
    zeta: float
    steps: int
    realizations: int
    master_seed: int

    def __post_init__(self):
        if not isinstance(self.mode, DisorderMode):
            object.__setattr__(self, "mode", DisorderMode(self.mode))
        for name in ("steps", "realizations", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not (0.0 <= self.zeta <= math.pi):
            raise ConfigError(f"zeta must lie in [0, pi], got {self.zeta!r}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps!r}")
        if self.realizations < 1:
            raise ConfigError(f"realizations must be >= 1, got {self.realizations!r}")
        if not (0 <= self.master_seed <= _MASK64):
            raise ConfigError(f"master_seed must be an unsigned 64-bit integer, got {self.master_seed!r}")


@dataclass(frozen=True)
class PhaseMatrix:
    """Phases phi(i, j) for one step of one realization.

    values is either a (L, L) array over the square |i|, |j| <= half_width
    (entry [i + half_width, j + half_width]) or a 0-d scalar when the same
    phase applies to every site (uniform dephasing, or no disorder at all).
    A scalar matrix covers any support, so half_width is None for it.
    """

    values: np.ndarray
    half_width: int | None
    step: int

    def values_for(self, half_width: int) -> np.ndarray:
        """Return phases aligned to a grid of the given half width.

        Raises PhaseCoverageError when the stored grid is too small: an
        occupied site without a phase is a disorder-generation bug, never
        something to paper over with a default.
        """
        if self.half_width is None:
            return self.values
        if self.half_width < half_width:
            raise PhaseCoverageError(
                f"phase matrix covers |i|,|j| <= {self.half_width} "
                f"but the state needs |i|,|j| <= {half_width}"
            )
        off = self.half_width - half_width
        size = 2 * half_width + 1
        return self.values[off:off + size, off:off + size]


def derive_trajectory_seed(master_seed: int, trajectory_index: int) -> int:
    """Seed for trajectory k, via the SplitMix64 output function.

    This is the k-th output of a SplitMix64 stream started at master_seed
    (state advances by the 64-bit golden gamma 0x9E3779B97F4A7C15, then the
    finalizer mixes it).  Both maps are bijections on 64-bit integers, so
    distinct indices always yield distinct seeds, and the finalizer gives
    statistically independent streams.  The constants are fixed; results
    stay reproducible across releases.
    """
    z = (master_seed + (trajectory_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trajectory_rng(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """Independent PCG64 stream for one trajectory."""
    return np.random.default_rng(derive_trajectory_seed(master_seed, trajectory_index))


class PhaseSampler:
    """Phase stream for a single disorder realization.

    One sampler per trajectory; samplers are never shared between threads.
    Grids are always drawn whole (every site of the bounded lattice, in a
    fixed row-major order), so the phases a state actually sees cannot
    depend on the order its sites became occupied.
    """

    def __init__(self, config: DisorderConfig, trajectory_index: int):
        self.config = config
        self.rng = trajectory_rng(config.master_seed, trajectory_index)
        self._static: PhaseMatrix | None = None

    def phases_for_step(self, step: int, half_width: int) -> PhaseMatrix:
        """Phase matrix applied at the end of the given step.

        half_width must be at least the half width of the state's support
        after the step's shifts.
        """
        cfg = self.config
        zeta = cfg.zeta
        if cfg.mode is DisorderMode.NONE or zeta == 0.0:
            return PhaseMatrix(np.float64(0.0), None, step)
        if cfg.mode is DisorderMode.DYNAMICAL_UNIFORM:
            return PhaseMatrix(np.float64(self.rng.uniform(-zeta, zeta)), None, step)
        size = 2 * half_width + 1
        if cfg.mode is DisorderMode.DYNAMICAL_SPATIAL:
            return PhaseMatrix(self.rng.uniform(-zeta, zeta, size=(size, size)), half_width, step)
        # static spatial: one grid per realization, drawn on first request
        # and reused bit-for-bit at every later step
        if self._static is None:
            values = self.rng.uniform(-zeta, zeta, size=(size, size))
            self._static = PhaseMatrix(values, half_width, step)
        elif self._static.half_width < half_width:
            raise PhaseCoverageError(
                f"static phases were drawn for |i|,|j| <= {self._static.half_width}; "
                f"cannot extend to {half_width} without re-consuming randomness"
            )
        return PhaseMatrix(self._static.values, self._static.half_width, step)
