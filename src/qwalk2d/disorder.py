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


def _phases(draws, zeta: float):
    """Phases from draws uniform on [0, 1) with uniform(-zeta, zeta)'s own
    arithmetic, -zeta + (zeta - -zeta) * u, bit for bit; an array of draws
    turns into its phases in place."""
    draws *= zeta - -zeta
    draws += -zeta
    return draws


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

    A draw is uniform on [0, 1), and _phases turns it into its phase.
    phases_for_step hands out phases; fill_window hands the engine the
    draws of a step's sublattice sites, which it turns into phases for a
    whole group of trajectories at once.  Both take their rows from
    _draw_rows.
    """

    def __init__(self, config: DisorderConfig, trajectory_index: int):
        self.config = config
        self.rng = trajectory_rng(config.master_seed, trajectory_index)
        self._grid: np.ndarray | None = None  # static spatial draws
        self._phase_grid: np.ndarray | None = None  # their phases, for phases_for_step

    def _draw_rows(self, step: int, half_width: int, rows: np.ndarray | None = None
                   ) -> np.ndarray:
        """The draws of the rows |i| <= half_width of a spatial mode's
        whole-lattice grid for the given step, (2 half_width + 1, L) with
        L = 2 steps + 1.  Raises PhaseCoverageError for a window wider than
        the lattice.

        Static spatial disorder draws its grid at the first request and
        hands out views of it.  A dynamical step draws only the window's
        rows, into the buffer rows when one is given, and advances the
        stream past the rows above and below, so the stream ends where the
        whole draw would have left it.
        """
        cfg = self.config
        if half_width > cfg.steps:
            raise PhaseCoverageError(
                f"step {step} asks for phases on |i|,|j| <= {half_width}, "
                f"but the lattice ends at {cfg.steps}"
            )
        size = 2 * cfg.steps + 1
        off = cfg.steps - half_width
        if cfg.mode is DisorderMode.STATIC_SPATIAL:
            if self._grid is None:
                self._grid = self.rng.random((size, size))
            return self._grid[off:size - off]
        # random takes one 64-bit output per double, so skipping off rows
        # of the whole-lattice draw is one advance by off * size
        if rows is None:
            rows = np.empty((size - 2 * off, size))
        self.rng.bit_generator.advance(off * size)
        self.rng.random(out=rows)
        self.rng.bit_generator.advance(off * size)
        return rows

    def phases_for_step(self, step: int, half_width: int) -> PhaseMatrix:
        """Phases applied at the end of the given step on |i|, |j| <= half_width.

        Raises PhaseCoverageError for a window wider than the lattice.  For
        the whole lattice a static spatial grid is the same object at every
        step.  No disorder, or zeta = 0, gives a 0-d zero, and uniform
        dephasing one 0-d phase per step.
        """
        cfg = self.config
        zeta = float(cfg.zeta)
        if cfg.mode is DisorderMode.NONE or zeta == 0.0:
            return PhaseMatrix(np.float64(0.0))
        if cfg.mode is DisorderMode.DYNAMICAL_UNIFORM:
            return PhaseMatrix(np.float64(_phases(self.rng.random(), zeta)))
        drawn = self._draw_rows(step, half_width)
        size = 2 * cfg.steps + 1
        off = cfg.steps - half_width
        if cfg.mode is DisorderMode.STATIC_SPATIAL:
            if self._phase_grid is None:
                self._phase_grid = _phases(self._grid.copy(), zeta)
            rows = self._phase_grid[off:size - off] if off else self._phase_grid
        else:
            rows = _phases(drawn, zeta)
        return PhaseMatrix(rows[:, off:size - off] if off else rows)

    def fill_window(self, step: int, out: np.ndarray, rows: np.ndarray | None) -> None:
        """Write the draws of the given step's sublattice sites into out;
        only for a mode with nonzero phases.

        For a spatial mode out is (step + 1, step + 1): out[u, v] is the
        draw of site (2u - step, 2v - step), which phases_for_step(step,
        step) turns into that site's phase.  A dynamical spatial step draws
        its rows into rows, a (2 step + 1, L) buffer that a group of
        samplers can share.  For uniform dephasing out is (1, 1), the
        step's one draw.
        """
        if self.config.mode is DisorderMode.DYNAMICAL_UNIFORM:
            self.rng.random(out=out)
            return
        drawn = self._draw_rows(step, step, rows)
        off = self.config.steps - step
        out[...] = drawn[::2, off:drawn.shape[1] - off:2]
