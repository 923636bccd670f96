"""One full walk step, trajectory runs, and the exact averaged-channel oracle.

A step applies coin, x shift, coin, y shift, then the dephasing kick, so a
trajectory with a fixed phase draw stays a pure state.  The oracle evolves
the full density matrix under the phase-averaged channel instead; it has no
sampling error but scales as the square of the lattice size, so it is only
meant for short walks.

Both engines evolve a window that follows the light cone: it starts with
half width 1 and gains one empty ring (state.pad_ring) before every step
after the first, so after n steps it covers |i|, |j| <= n.  Each step's
window is written into the centre of a zeroed (N+1, 2N+1, 2N+1) stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import variance_series
from .disorder import DisorderConfig, DisorderMode, PhaseMatrix, PhaseSampler
from .errors import (
    ConfigError,
    LatticeOverflowError,
    UnsupportedModeError,
    check_unit_total,
)
from .state import (
    WalkState,
    apply_coin,
    apply_dephasing,
    apply_shift_x,
    apply_shift_y,
    initial_state,
    pad_ring,
)

# dense density matrices grow as (2 * (2n+1)^2)^2; past this the oracle is
# no longer a sensible tool
MAX_ORACLE_STEPS = 10


def _unitary(state: WalkState) -> WalkState:
    """The deterministic part of a step, U = S_Y H S_X H, on the trailing
    (L, L, 2) axes; each intermediate is dropped as soon as it is consumed."""
    state = apply_coin(state)
    state = apply_shift_x(state)
    state = apply_coin(state)
    return apply_shift_y(state)


def step(state: WalkState, phases: PhaseMatrix) -> WalkState:
    """Advance one full step: coin, x shift, coin, y shift, dephasing."""
    out = apply_dephasing(_unitary(state), phases)
    out.step_count = state.step_count + 1
    return out


@dataclass
class TrajectoryResult:
    """Per-step site probabilities of one realization.

    probabilities[n] is the (L, L) grid after n steps, n = 0..steps.
    """

    probabilities: np.ndarray
    half_width: int


def _centred(grid: np.ndarray, window: np.ndarray) -> None:
    """Write a square window into the centre of a larger square grid."""
    off = (grid.shape[0] - window.shape[0]) // 2
    grid[off:off + window.shape[0], off:off + window.shape[1]] = window


def run_trajectory(config: DisorderConfig, trajectory_index: int) -> TrajectoryResult:
    """Run one realization for config.steps steps.

    The state grows with the light cone (see the module docstring), while
    the phases are drawn on the whole half-width config.steps grid, so the
    random stream is that of a walk on the full lattice.  Raises
    InvariantViolationError, naming the trajectory and the step, as soon as
    a step's total probability is not 1 (see check_unit_total).
    """
    n_steps = config.steps
    sampler = PhaseSampler(config, trajectory_index)
    state = initial_state(1)
    size = 2 * n_steps + 1
    probs = np.zeros((n_steps + 1, size, size), dtype=float)
    _centred(probs[0], state.probabilities())
    for n in range(1, n_steps + 1):
        if n > 1:
            state = pad_ring(state)
        state = step(state, sampler.phases_for_step(n, n_steps))
        window = state.probabilities()
        check_unit_total(window.sum(), f"trajectory {trajectory_index}: norm at step {n}")
        _centred(probs[n], window)
    return TrajectoryResult(probs, n_steps)


# ---------------------------------------------------------------------------
# exact averaged-channel oracle
# ---------------------------------------------------------------------------

@dataclass
class DensityState:
    """Dense density matrix over the bounded lattice and coin.

    Basis order is site-major, coin-minor: basis index
    ((i + h) * L + (j + h)) * 2 + c with L = 2h + 1 and c = 0 for H,
    1 for V.  rho has shape (2 L^2, 2 L^2).
    """

    rho: np.ndarray
    half_width: int
    step_count: int = 0

    @property
    def grid_size(self) -> int:
        return 2 * self.half_width + 1

    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def purity(self) -> float:
        return float(np.vdot(self.rho, self.rho).real)

    def site_probabilities(self) -> np.ndarray:
        """(L, L) grid of p(i, j), the coin-traced diagonal."""
        size = self.grid_size
        diag = self.rho.diagonal().real
        return diag.reshape(size, size, 2).sum(axis=2)


def basis_index(i: int, j: int, coin: int, half_width: int) -> int:
    """Flat basis index of |i, j, coin> in the documented ordering."""
    size = 2 * half_width + 1
    return ((i + half_width) * size + (j + half_width)) * 2 + coin


def density_from_state(state: WalkState) -> DensityState:
    """|psi><psi| of a pure state, in the documented basis order."""
    vec = state.amps.reshape(-1)
    return DensityState(np.outer(vec, vec.conj()), state.half_width, state.step_count)


def initial_density(half_width: int) -> DensityState:
    return density_from_state(initial_state(half_width))


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


def _on_both_sides(op, dstate: DensityState) -> np.ndarray:
    """A state operation applied to the ket axes (moved last), then to the bra
    axes, of rho as a (L, L, 2, L, L, 2) tensor.  The calls are nested so
    the ket-side result is freed while the bra side consumes it."""
    size, h = dstate.grid_size, dstate.half_width
    t = dstate.rho.reshape(size, size, 2, size, size, 2)
    return op(WalkState(
        op(WalkState(t.transpose(3, 4, 5, 0, 1, 2), h)).amps.transpose(3, 4, 5, 0, 1, 2),
        h,
    )).amps


def _pad_density(dstate: DensityState) -> DensityState:
    """The same density matrix on a lattice one ring wider; the ring is empty."""
    t = _on_both_sides(pad_ring, dstate)
    dim = 2 * t.shape[0] ** 2
    return DensityState(t.reshape(dim, dim), dstate.half_width + 1, dstate.step_count)


def exact_step_density(dstate: DensityState, config: DisorderConfig) -> DensityState:
    """One step of the phase-averaged channel on a density matrix.

    Applies the deterministic unitaries by conjugation, then damps each
    matrix element by the average of its dephasing factor.  Uniform
    dephasing damps every site's coin block alike.  Spatial dephasing draws
    independent phases on distinct sites, so every coherence between two
    sites is damped by cross_site_coherence_factor, while a site's own 2x2
    block sees a single phase and takes the coin block instead.
    """
    if dstate.step_count + 1 > dstate.half_width:
        raise LatticeOverflowError(
            f"oracle lattice bound {dstate.half_width} cannot hold step {dstate.step_count + 1}"
        )
    block = _coin_block(config)
    size = dstate.grid_size
    # U rho U^dagger: U on the ket axes, then on the bra axes (U is real,
    # so its conjugate is U)
    t = _on_both_sides(_unitary, dstate)
    if block is not None and config.mode is DisorderMode.DYNAMICAL_UNIFORM:
        t *= block.reshape(1, 1, 2, 1, 1, 2)
    elif block is not None:
        sites = np.arange(size)
        ii, jj = sites[:, None], sites[None, :]
        own = t[ii, jj, :, ii, jj, :]
        t *= cross_site_coherence_factor(config.zeta)
        t[ii, jj, :, ii, jj, :] = own * block
    dim = 2 * size * size
    return DensityState(t.reshape(dim, dim), dstate.half_width, dstate.step_count + 1)


@dataclass
class ExactRunResult:
    """Ensemble-exact per-step distributions and variances (no sampling error)."""

    config: DisorderConfig
    probabilities: np.ndarray
    variances: np.ndarray
    half_width: int


def exact_run(config: DisorderConfig, n_max: int | None = None) -> ExactRunResult:
    """Evolve the averaged channel for n_max steps (default config.steps).

    The lattice grows with the light cone (see the module docstring), so
    step n works on a density matrix of dimension 2 (2n + 1)^2.  Intended
    for small lattices only: the last step's matrix has dimension
    2 (2 n_max + 1)^2, so runs are capped at MAX_ORACLE_STEPS steps.
    """
    n_steps = config.steps if n_max is None else n_max
    if n_steps > MAX_ORACLE_STEPS:
        raise ConfigError(
            f"exact oracle is limited to {MAX_ORACLE_STEPS} steps "
            f"(dense density matrix), got {n_steps}"
        )
    _coin_block(config)  # rejects unsupported modes before doing any work
    dstate = initial_density(1)
    size = 2 * n_steps + 1
    probs = np.zeros((n_steps + 1, size, size), dtype=float)
    _centred(probs[0], dstate.site_probabilities())
    for n in range(1, n_steps + 1):
        if n > 1:
            dstate = _pad_density(dstate)
        dstate = exact_step_density(dstate, config)
        window = dstate.site_probabilities()
        check_unit_total(window.sum(), f"oracle trace at step {n}")
        _centred(probs[n], window)
    return ExactRunResult(config, probs, variance_series(probs, n_steps), n_steps)
