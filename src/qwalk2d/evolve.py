"""One full walk step, trajectory runs, and the exact averaged-channel oracle.

A step applies coin, x shift, coin, y shift, then the dephasing kick, so a
trajectory with a fixed phase draw stays a pure state.  The oracle evolves
the full density matrix under the phase-averaged channel instead; it has no
sampling error but scales as the square of the lattice size, so it is only
meant for short walks.

Both engines keep their states on the parity sublattice (see the state
module): shape (n + 1, n + 1, 2) after n steps, and an oracle rho of
dimension 2 (n + 1)^2.  Step n takes every other phase of its window
|i|, |j| <= n, a strided view of the whole-lattice draw.  One light-cone
loop, _light_cone, runs both engines: after every step it checks the unit
total and yields the (n + 1)^2 sublattice probabilities.  The trajectory
engine steps a group of B trajectories as one (B, n + 1, n + 1, 2) stack
(trajectory_windows); the ensemble streams those windows into its sums
and never builds a per-trajectory stack.  run_trajectory is the B = 1
case, and it and exact_run scatter the windows onto the sites
i = j = n (mod 2) of a zeroed (N+1, 2N+1, 2N+1) stack.  The public step
and exact_step_density run the same kernels on the full grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import variance_series
from .disorder import DisorderConfig, DisorderMode, PhaseMatrix, PhaseSampler
from .errors import ConfigError, TrajectoryFailure, UnsupportedModeError, check_unit_total
from .state import (
    WalkState,
    _grow_x,
    _grow_y,
    apply_coin,
    apply_dephasing,
    apply_shift_x,
    apply_shift_y,
    initial_state,
)

# on the parity sublattice rho has dimension 2 (n+1)^2 after n steps, so the
# dense oracle grows as (n+1)^4; at the cap its last rho has dimension 882,
# and past it the oracle is no longer a sensible tool
MAX_ORACLE_STEPS = 20


def _unitary(state: WalkState, sublattice: bool) -> WalkState:
    """The deterministic part of a step, U = S_Y H S_X H, on the trailing
    (L, L, 2) axes of a sublattice or full-grid state; each intermediate is
    dropped as soon as it is consumed."""
    shift_x, shift_y = (_grow_x, _grow_y) if sublattice else (apply_shift_x, apply_shift_y)
    state = apply_coin(state)
    state = shift_x(state)
    state = apply_coin(state)
    return shift_y(state)


def _step(state: WalkState, phases: PhaseMatrix, sublattice: bool) -> WalkState:
    """Coin, x shift, coin, y shift, dephasing; a sublattice state comes out
    on the sublattice of the next step."""
    out = apply_dephasing(_unitary(state, sublattice), phases)
    return WalkState(out.amps, state.half_width + sublattice, state.step_count + 1)


def step(state: WalkState, phases: PhaseMatrix) -> WalkState:
    """Advance a full-grid state one full step: coin, x shift, coin, y
    shift, dephasing."""
    return _step(state, phases, sublattice=False)


@dataclass
class TrajectoryResult:
    """Per-step site probabilities of one realization.

    probabilities[n] is the (L, L) grid after n steps, n = 0..steps.
    """

    probabilities: np.ndarray
    half_width: int


def sublattice_sites(n: int, size: int) -> slice:
    """The indices of i = n (mod 2), |i| <= n, along an axis of a centred
    grid of size L: where step n's (n + 1)-site sublattice axis lands."""
    centre = size // 2
    return slice(centre - n, centre + n + 1, 2)


def _light_cone(state, n_steps: int, advance, site_probabilities, check):
    """Yield (n, site_probabilities(state)) for n = 0..n_steps, starting from
    a sublattice state.  advance(state, n) returns the state after step n,
    and the result is rebound, so the previous state is freed.  check(window,
    n) runs on every window after step 0 and raises
    InvariantViolationError if its unit total fails."""
    yield 0, site_probabilities(state)
    for n in range(1, n_steps + 1):
        state = advance(state, n)
        window = site_probabilities(state)
        check(window, n)
        yield n, window


def _stacked(windows, n_steps: int) -> np.ndarray:
    """The (n_steps + 1, L, L) stack, L = 2 n_steps + 1, of the (n, window)
    pairs: each (n + 1, n + 1) window lands on step n's sublattice sites,
    and every other site is 0.0."""
    size = 2 * n_steps + 1
    probs = np.zeros((n_steps + 1, size, size), dtype=float)
    for n, window in windows:
        sites = sublattice_sites(n, size)
        probs[n, sites, sites] = window
    return probs


def trajectory_windows(config: DisorderConfig, start: int, stop: int):
    """Yield (n, probs) for n = 0..config.steps, where probs[b] is the
    (n + 1, n + 1) sublattice window of trajectory start + b after step n.

    The B = stop - start trajectories are stepped as one (B, n + 1, n + 1, 2)
    sublattice stack.  Each keeps its own PhaseSampler, and step n takes
    every other phase of its window |i|, |j| <= n.  Every operation acts
    site by site, so each trajectory's bits do not depend on B.  A failing
    unit total raises InvariantViolationError naming the first trajectory,
    in index order, that fails at the first failing step; an exception from
    a trajectory's sampler comes out as TrajectoryFailure naming it.
    """
    samplers = [PhaseSampler(config, k) for k in range(start, stop)]

    def advance(state: WalkState, n: int) -> WalkState:
        phases = np.empty((len(samplers), n + 1, n + 1))
        for k, sampler in enumerate(samplers, start):
            try:
                values = sampler.phases_for_step(n, n).values
            except Exception as exc:
                raise TrajectoryFailure(f"trajectory {k} failed at step {n}: {exc}") from exc
            # a scalar phase fills the whole window
            phases[k - start] = values[::2, ::2] if values.ndim else values
        return _step(state, PhaseMatrix(phases), sublattice=True)

    def check(windows: np.ndarray, n: int) -> None:
        for k, total in enumerate(windows.sum(axis=(1, 2)), start):
            check_unit_total(total, f"trajectory {k}: norm at step {n}")

    amps = np.repeat(initial_state(0).amps[np.newaxis], len(samplers), axis=0)
    return _light_cone(WalkState(amps, 0), config.steps, advance, WalkState.probabilities, check)


def run_trajectory(config: DisorderConfig, trajectory_index: int) -> TrajectoryResult:
    """Run one realization for config.steps steps: trajectory_windows for
    the one trajectory, scattered onto the full grid."""
    windows = trajectory_windows(config, trajectory_index, trajectory_index + 1)
    return TrajectoryResult(_stacked(((n, w[0]) for n, w in windows), config.steps),
                            config.steps)


# ---------------------------------------------------------------------------
# exact averaged-channel oracle
# ---------------------------------------------------------------------------

@dataclass
class DensityState:
    """Dense density matrix over the walker's sites and coin.

    Basis order is site-major, coin-minor: basis index (u * L + v) * 2 + c,
    where (u, v, c) indexes a WalkState's amps (either layout, see the
    state module) and c = 0 is H, 1 is V.  rho has shape (2 L^2, 2 L^2).
    """

    rho: np.ndarray
    half_width: int
    step_count: int = 0

    @property
    def grid_size(self) -> int:
        """L, the number of sites stored along each axis."""
        return math.isqrt(self.rho.shape[0] // 2)

    def site_probabilities(self) -> np.ndarray:
        """(L, L) grid of p(i, j), the coin-traced diagonal."""
        size = self.grid_size
        diag = self.rho.diagonal().real
        return diag.reshape(size, size, 2).sum(axis=2)


def initial_density(half_width: int) -> DensityState:
    """|psi><psi| of initial_state(half_width), in the documented basis order."""
    vec = initial_state(half_width).amps.reshape(-1)
    return DensityState(np.outer(vec, vec.conj()), half_width)


def same_site_coherence_factor(zeta: float) -> float:
    """Average of e^{i phi} over phi ~ Uniform[-zeta, zeta]: sin(zeta)/zeta."""
    return float(np.sinc(zeta / np.pi))


def cross_site_coherence_factor(zeta: float) -> float:
    """Product of two independent averages of e^{+-i phi/2}: (sin(z/2)/(z/2))^2."""
    return float(np.sinc(zeta / (2.0 * np.pi)) ** 2)


def _coin_block(config: DisorderConfig) -> np.ndarray | None:
    """Phase-averaged damping of one site's own 2x2 coin block; None if undamped.

    Derived by averaging the dephasing unitary pair over the uniform phase
    law; each closed form is pinned against numerical quadrature in the
    test suite before the oracle is trusted.  Static spatial disorder has no
    such per-step average (the ensemble is correlated in time) and is
    rejected.
    """
    if config.mode is DisorderMode.NONE or config.zeta == 0.0:
        return None
    if config.mode is DisorderMode.STATIC_SPATIAL:
        raise UnsupportedModeError(
            f"no step-factorizing phase average exists for mode {config.mode}; "
            "the exact channel supports none, dynamical-spatial and dynamical-uniform"
        )
    same_coin = same_site_coherence_factor(config.zeta)
    return np.array([[1.0, same_coin], [same_coin, 1.0]])


def _density_step(dstate: DensityState, config: DisorderConfig,
                  sublattice: bool) -> DensityState:
    """One step of the phase-averaged channel on a sublattice or full-grid
    density matrix; a sublattice one comes out on the next step's."""
    block = _coin_block(config)
    size, h = dstate.grid_size, dstate.half_width
    # U rho U^dagger with rho as a (L, L, 2, L, L, 2) tensor: U on the ket
    # axes (moved last), then on the bra axes (U is real, so its conjugate
    # is U); the calls are nested so the ket-side result is freed while the
    # bra side consumes it
    t = dstate.rho.reshape(size, size, 2, size, size, 2)
    t = _unitary(WalkState(
        _unitary(WalkState(t.transpose(3, 4, 5, 0, 1, 2), h),
                 sublattice).amps.transpose(3, 4, 5, 0, 1, 2),
        h,
    ), sublattice).amps
    if block is not None and config.mode is DisorderMode.DYNAMICAL_UNIFORM:
        t *= block.reshape(1, 1, 2, 1, 1, 2)
    elif block is not None:
        sites = np.arange(t.shape[0])
        ii, jj = sites[:, None], sites[None, :]
        own = t[ii, jj, :, ii, jj, :]
        t *= cross_site_coherence_factor(config.zeta)
        t[ii, jj, :, ii, jj, :] = own * block
    dim = 2 * t.shape[0] ** 2
    return DensityState(t.reshape(dim, dim), h + sublattice, dstate.step_count + 1)


def exact_step_density(dstate: DensityState, config: DisorderConfig) -> DensityState:
    """One step of the phase-averaged channel on a full-grid density matrix.

    Applies the deterministic unitaries by conjugation, then damps each
    matrix element by the average of its dephasing factor.  Uniform
    dephasing damps every site's coin block alike.  Spatial dephasing draws
    independent phases on distinct sites, so every coherence between two
    sites is damped by cross_site_coherence_factor, while a site's own 2x2
    block sees a single phase and takes the coin block instead.  Raises
    LatticeOverflowError if the step would leave the grid.
    """
    return _density_step(dstate, config, sublattice=False)


@dataclass
class ExactRunResult:
    """Ensemble-exact per-step distributions and variances (no sampling error)."""

    config: DisorderConfig
    probabilities: np.ndarray
    variances: np.ndarray
    half_width: int


def exact_run(config: DisorderConfig) -> ExactRunResult:
    """Evolve the averaged channel for config.steps steps.

    rho lives on the parity sublattice (see the module docstring), so step
    n works on a density matrix of dimension 2 (n + 1)^2.  Intended for
    small lattices only: runs are capped at MAX_ORACLE_STEPS steps.
    """
    n_steps = config.steps
    if n_steps > MAX_ORACLE_STEPS:
        raise ConfigError(
            f"exact oracle is limited to {MAX_ORACLE_STEPS} steps "
            f"(dense density matrix), got {n_steps}"
        )
    _coin_block(config)  # rejects unsupported modes before doing any work
    windows = _light_cone(
        initial_density(0), n_steps,
        lambda dstate, n: _density_step(dstate, config, sublattice=True),
        DensityState.site_probabilities,
        lambda window, n: check_unit_total(window.sum(), f"oracle trace at step {n}"))
    probs = _stacked(windows, n_steps)
    return ExactRunResult(config, probs, variance_series(probs, n_steps), n_steps)
