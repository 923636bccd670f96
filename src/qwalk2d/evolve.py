"""Walk steps, trajectory runs, and the exact averaged-channel oracle.

A step applies coin, x shift, coin, y shift, then the dephasing kick, so a
trajectory with a fixed phase draw stays a pure state.  The oracle evolves
the full density matrix under the phase-averaged channel instead; it has no
sampling error but scales as the square of the lattice size, so it is only
meant for short walks.

Both engines step plain arrays on the parity sublattice (see the state
module) with one kernel, _walk: a trajectory is (n + 1, n + 1, 2) after n
steps, and the oracle's rho an (n + 1, n + 1, 2, n + 1, n + 1, 2) stack
of such states, stepped on both sides (_channel).  Step n's phases are
those of its window's sublattice sites, every other site of the window
|i|, |j| <= n at the centre of the whole-lattice draw.  walk_group steps
a group of B trajectories as one (B, n + 1, n + 1, 2) stack and yields
each step's checked windows; the ensemble module sums them.  Apart from
one draw per trajectory, each step makes a fixed number of numpy calls
for the whole group: the phases and their exp, the kick, the unit check.

A WalkResult holds its site distributions the same way, as one
(n + 1, n + 1) window per step, window[u, v] = p(2u - n, 2v - n), and its
variance series comes from the windows' zero-padded marginals
(window_variances), bit for bit the series of the dense grids.  Nothing
on the run's path builds a dense (N+1, 2N+1, 2N+1) grid stack: a result
scatters one step onto a (2N + 1)^2 grid (distribution), and builds the
whole stack only when asked for it (probabilities).  zero_windows
allocates an ensemble's sums, and also reads a CSV's rows into them.
WalkState, DensityState and exact_step_density (_channel with the
full-grid kernels) are the tests' and the replay's reference API.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .analysis import Distribution2D, marginal_variances, zeroed_array
from .disorder import DisorderConfig, DisorderMode, PhaseSampler, _phases
from .errors import (
    UNIT_TOL,
    ConfigError,
    TrajectoryFailure,
    UnsupportedModeError,
    check_unit_total,
)
from .state import (
    WalkState,
    _coin_grow,
    _kick,
    apply_coin,
    apply_shift_x,
    apply_shift_y,
    initial_state,
    site_probabilities,
)

# on the parity sublattice rho has dimension 2 (n+1)^2 after n steps, so the
# dense oracle grows as (n+1)^4; at the cap its last rho has dimension 882,
# and past it the oracle is no longer a sensible tool
MAX_ORACLE_STEPS = 20


def _walk(a: np.ndarray) -> np.ndarray:
    """The deterministic part of a step, U = S_Y H S_X H, on the trailing
    (n + 1, n + 1, 2) axes of sublattice amplitudes, out on step n + 1's
    sublattice: two fused coin and shift kernels, state._coin_grow."""
    return _coin_grow(_coin_grow(a, -3), -2)


def _step(amps: np.ndarray, half_turns=None) -> np.ndarray:
    """_walk on sublattice amplitudes, then the dephasing kick in place by
    half_turns(), e^{-i phi/2} (see _half_turns); None skips the kick.
    The factors are made after the walk, so that it runs without them."""
    amps = _walk(amps)
    if half_turns is not None:
        _kick(amps, half_turns(), amps)
    return amps


def sublattice_sites(n: int, size: int) -> slice:
    """The indices of i = n (mod 2), |i| <= n, along an axis of a centred
    grid of size L: where step n's (n + 1)-site sublattice axis lands."""
    centre = size // 2
    return slice(centre - n, centre + n + 1, 2)


def sublattice_marginals(windows: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The x and y marginals of step-n windows (..., n + 1, n + 1), at the
    sites sublattice_sites(n, size) of a size-L axis: as variance_series
    builds them from the dense grids.  A row sum runs over the whole
    zero-padded grid row, since numpy's pairwise sum groups a shorter row
    differently; a column sum adds rows in order, so it may skip the zeros."""
    rows = np.zeros(windows.shape[:-1] + (size,))
    rows[..., sublattice_sites(windows.shape[-1] - 1, size)] = windows
    return rows.sum(axis=-1), windows.sum(axis=-2)


def window_variances(windows: list[np.ndarray], half_width: int) -> np.ndarray:
    """variance_series of the dense grids of per-step windows, bit for bit,
    from their marginals (sublattice_marginals)."""
    size = 2 * half_width + 1
    px = np.zeros((len(windows), size))
    py = np.zeros_like(px)
    for n, window in enumerate(windows):
        sites = sublattice_sites(n, size)
        px[n, sites], py[n, sites] = sublattice_marginals(window, size)
    return marginal_variances(px, py, half_width)


@dataclass
class WalkResult:
    """Per-step site distributions of a run and their variance series.

    windows[n] is the (n + 1, n + 1) sublattice window of the site
    distribution after n steps, n = 0..steps: windows[n][u, v] is
    p(2u - n, 2v - n), and every other site is 0.  variances[n] is the
    variance of that distribution (the figure-of-merit series), and
    variance_stderr[n] its standard error from the spread of
    per-trajectory variances (a diagnostic), or None where there is no
    spread: one trajectory, or the exact oracle.
    """

    config: DisorderConfig
    windows: list[np.ndarray]
    variances: np.ndarray
    variance_stderr: np.ndarray | None

    @property
    def half_width(self) -> int:
        return self.config.steps

    @property
    def probabilities(self) -> np.ndarray:
        """The dense (N + 1, L, L) stack of site grids, L = 2N + 1, built
        from the windows on each call."""
        size = 2 * self.half_width + 1
        probs = zeroed_array((len(self.windows), size, size), "grid stack",
                             f"{len(self.windows)} steps on |i|, |j| <= {self.half_width}")
        for n, grid in enumerate(probs):
            grid[...] = self.distribution(n).probs
        return probs

    def distribution(self, n: int) -> Distribution2D:
        """Step n's distribution, its window scattered onto an (L, L) grid."""
        return scatter_window(self.windows[n], self.half_width)

    def distributions(self) -> list[Distribution2D]:
        """Every step's distribution, each a view of one probabilities stack."""
        return [Distribution2D(probs, self.half_width, n)
                for n, probs in enumerate(self.probabilities)]


def _half_turns(samplers: list[PhaseSampler], start: int, n: int) -> np.ndarray:
    """e^{-i phi/2} of step n's phases for a group, one grid per sampler:
    (B, n + 1, n + 1) for a spatial mode, (B, 1, 1) for uniform dephasing.
    The samplers write their draws into one buffer (PhaseSampler.fill_window;
    dynamical spatial ones draw their rows into one shared row buffer), and
    the group turns them all into phases at once (disorder._phases).
    A sampler's exception comes out as TrajectoryFailure naming its
    trajectory.  The buffers live for the step alone."""
    config = samplers[0].config
    zeta = float(config.zeta)
    rows = None
    if config.mode is DisorderMode.DYNAMICAL_SPATIAL:
        rows = np.empty((2 * n + 1, 2 * config.steps + 1))
    width = 1 if config.mode is DisorderMode.DYNAMICAL_UNIFORM else n + 1
    draws = np.empty((len(samplers), width, width))
    for k, (sampler, out) in enumerate(zip(samplers, draws), start):
        try:
            sampler.fill_window(n, out, rows)
        except Exception as exc:
            raise TrajectoryFailure(f"trajectory {k} failed at step {n}: {exc}") from exc
    half_turn = -0.5j * _phases(draws, zeta)
    return np.exp(half_turn, out=half_turn)


def zero_windows(n_steps: int, rows=None) -> list[np.ndarray]:
    """Zeroed sublattice windows, one (n + 1, n + 1) grid per step n =
    0..n_steps, each a view of one buffer of sum_n (n + 1)^2 values: the
    sums of an ensemble chunk; a ConfigError names the buffer's size
    if it cannot be allocated.  rows, columns (step, i, j, p) naming each
    site once on its step's sublattice, set window[(i + step) / 2, (j + step) / 2] = p."""
    start = lambda n: n * (n + 1) * (2 * n + 1) // 6  # sum_{m < n} (m + 1)^2
    buffer = zeroed_array((start(n_steps + 1),),
                          f"window buffer (sum of (n + 1)^2 over n = 0..{n_steps})",
                          f"{n_steps + 1} steps")
    if rows is not None:
        step, i, j, p = rows
        buffer[start(step) + (i + step) // 2 * (step + 1) + (j + step) // 2] = p
    return [buffer[start(n):start(n + 1)].reshape(n + 1, n + 1) for n in range(n_steps + 1)]


def scatter_window(window: np.ndarray, half_width: int) -> Distribution2D:
    """Step n's distribution: its (n + 1, n + 1) sublattice window written
    onto the sites i = j = n (mod 2) of a zeroed centred (L, L) grid,
    L = 2 half_width + 1.  The other sites stay +0.0, as the dense sums of
    the same windows would leave them."""
    n, size = len(window) - 1, 2 * half_width + 1
    grid = np.zeros((size, size))
    grid[sublattice_sites(n, size), sublattice_sites(n, size)] = window
    return Distribution2D(grid, half_width, n)


def walk_group(config: DisorderConfig, start: int, stop: int, var_rows: np.ndarray):
    """Walk trajectories start..stop-1, B of them, and yield their step-n
    probability windows, one (B, n + 1, n + 1) array per step n, which the
    caller may overwrite.  Once exhausted, write trajectory start + b's
    variance series into var_rows[b].

    The trajectories are stepped as one sublattice stack, each with its
    own PhaseSampler, and kicked in place; without disorder, or at
    zeta = 0, there is no kick (it would multiply by 1, and could change
    only the sign of a zero amplitude).  A step's windows are yielded after
    its unit check: a failing total raises InvariantViolationError naming
    the first trajectory, in index order, that fails.  The variance rows
    come from each trajectory's x and y marginals (sublattice_marginals),
    as window_variances computes them, so no bit depends on B.
    """
    n_steps = config.steps
    size = 2 * n_steps + 1
    samplers = [PhaseSampler(config, k) for k in range(start, stop)]
    kicked = config.mode is not DisorderMode.NONE and config.zeta != 0.0
    px = np.zeros((len(samplers), n_steps + 1, size))
    py = np.zeros_like(px)
    amps = np.repeat(initial_state(0).amps[np.newaxis], len(samplers), axis=0)

    def half_turns():  # step n's
        return _half_turns(samplers, start, n)

    for n in range(n_steps + 1):
        if n > 0:
            amps = _step(amps, half_turns if kicked else None)
        windows = site_probabilities(amps)
        totals = windows.sum(axis=(1, 2))
        if not (abs(totals - 1.0) <= UNIT_TOL).all():
            # check_unit_total's test on the whole group; the loop names the
            # first trajectory that fails it
            for k, total in enumerate(totals, start):
                check_unit_total(total, f"trajectory {k}: norm at step {n}")
        sites = sublattice_sites(n, size)
        px[:, n, sites], py[:, n, sites] = sublattice_marginals(windows, size)
        yield windows
    for b in range(len(samplers)):
        var_rows[b] = marginal_variances(px[b], py[b], n_steps)


def run_trajectory(config: DisorderConfig, trajectory_index: int) -> WalkResult:
    """One realization, walk_group's windows for the one trajectory; an
    index that is not a non-negative integer (bool included) is a ConfigError."""
    if isinstance(trajectory_index, bool) or not isinstance(trajectory_index, numbers.Integral):
        raise ConfigError(f"trajectory_index must be an integer, got {trajectory_index!r}")
    if trajectory_index < 0:
        raise ConfigError(f"trajectory_index must be >= 0, got {trajectory_index}")
    k, variances = int(trajectory_index), np.empty((1, config.steps + 1))
    windows = [windows[0] for windows in walk_group(config, k, k + 1, variances)]
    return WalkResult(config, windows, variances[0], None)


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


def _channel(t: np.ndarray, config: DisorderConfig, walk) -> np.ndarray:
    """One step of the averaged channel (see exact_step_density) on rho as
    an (L, L, 2, L, L, 2) array, ket axes first; walk applies U to the
    trailing (L, L, 2) axes of a stack of states.  Returns a new array."""
    block = _coin_block(config)
    # U on the ket axes (moved last), then on the bra axes (U is real, so
    # its conjugate is U); the calls are nested so the ket-side result is
    # freed while the bra side consumes it
    t = walk(walk(t.transpose(3, 4, 5, 0, 1, 2)).transpose(3, 4, 5, 0, 1, 2))
    if block is not None and config.mode is DisorderMode.DYNAMICAL_UNIFORM:
        t *= block.reshape(1, 1, 2, 1, 1, 2)
    elif block is not None:
        sites = np.arange(t.shape[0])
        ii, jj = sites[:, None], sites[None, :]
        own = t[ii, jj, :, ii, jj, :]
        t *= cross_site_coherence_factor(config.zeta)
        t[ii, jj, :, ii, jj, :] = own * block
    return t


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
    size, h = dstate.grid_size, dstate.half_width
    walk = lambda a: apply_shift_y(apply_coin(apply_shift_x(apply_coin(WalkState(a, h))))).amps
    t = _channel(dstate.rho.reshape(size, size, 2, size, size, 2), config, walk)
    return DensityState(t.reshape(dstate.rho.shape), h, dstate.step_count + 1)


def exact_run(config: DisorderConfig) -> WalkResult:
    """Evolve the averaged channel for config.steps steps: ensemble-exact
    distributions and variances, with no sampling error.

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
    windows = []
    amps = initial_state(0).amps
    t = np.multiply.outer(amps, amps.conj())
    for n in range(n_steps + 1):
        if n > 0:
            t = _channel(t, config, _walk)
        diagonal = t.reshape(2 * (n + 1) ** 2, -1).diagonal().real
        windows.append(diagonal.reshape(n + 1, n + 1, 2).sum(axis=2))
        check_unit_total(windows[n].sum(), f"oracle trace at step {n}")
    return WalkResult(config, windows, window_variances(windows, n_steps), None)
