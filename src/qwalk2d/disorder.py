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
        try:
            object.__setattr__(self, "mode", DisorderMode(self.mode))
        except ValueError:
            raise ConfigError(f"unknown mode {self.mode!r}") from None
        for name in ("steps", "realizations", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.zeta, bool) or not isinstance(self.zeta, numbers.Real):
            raise ConfigError(f"zeta must be a real number, got {self.zeta!r}")
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

    values is either a (L, L) array over a centred window |i|, |j| <= h
    (entry [i + h, j + h], L = 2h + 1) or a 0-d scalar when the same phase
    applies to every site (uniform dephasing, or no disorder at all).  A
    stack of B trajectories' grids, shape (B, L, L), is also accepted by
    the dephasing kick.
    """

    values: np.ndarray


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
    Spatial grids are always drawn on the whole lattice |i|, |j| <= steps,
    in a fixed row-major order, and each step is handed the centred window
    it asks for.  So a site's phase depends only on the config, the
    trajectory, the step and the site, never on the window.
    """

    def __init__(self, config: DisorderConfig, trajectory_index: int):
        self.config = config
        self.rng = trajectory_rng(config.master_seed, trajectory_index)
        self._grid: np.ndarray | None = None

    def phases_for_step(self, step: int, half_width: int) -> PhaseMatrix:
        """Phases applied at the end of the given step on |i|, |j| <= half_width.

        Raises PhaseCoverageError for a window wider than the lattice.  For
        the whole lattice the values are the drawn grid itself; static
        spatial disorder draws its grid at the first request and hands the
        same object to every later step.  A dynamical step draws only the
        window's rows of its whole-lattice grid and advances the stream past
        the rows above and below, so the stream ends where the whole draw
        would have left it.
        """
        cfg = self.config
        zeta = cfg.zeta
        if cfg.mode is DisorderMode.NONE or zeta == 0.0:
            return PhaseMatrix(np.float64(0.0))
        if cfg.mode is DisorderMode.DYNAMICAL_UNIFORM:
            return PhaseMatrix(np.float64(self.rng.uniform(-zeta, zeta)))
        if half_width > cfg.steps:
            raise PhaseCoverageError(
                f"step {step} asks for phases on |i|,|j| <= {half_width}, "
                f"but the lattice ends at {cfg.steps}"
            )
        size = 2 * cfg.steps + 1
        off = cfg.steps - half_width
        if cfg.mode is DisorderMode.STATIC_SPATIAL:
            if self._grid is None:
                self._grid = self.rng.uniform(-zeta, zeta, size=(size, size))
            rows = self._grid[off:size - off] if off else self._grid
        else:
            # uniform takes one 64-bit output per double, so skipping off
            # rows of the whole-lattice draw is one advance by off * size
            self.rng.bit_generator.advance(off * size)
            rows = self.rng.uniform(-zeta, zeta, size=(size - 2 * off, size))
            self.rng.bit_generator.advance(off * size)
        return PhaseMatrix(rows[:, off:size - off] if off else rows)
