"""Walker state on a 2D integer lattice with a two-level coin.

The walker lives on sites (i, j) and carries a polarization coin spanned by
|H> and |V>.  Amplitudes are stored densely on the square |i|, |j| <=
half_width.  A step moves the walker at most one site along each axis, so
a state that gains one empty ring (pad_ring) before every step never
reaches the boundary.  Both engines start from the walker on its one site
(half width 0) and share one light-cone loop (evolve._light_cone) that
pads this way, so the grid has half width n after n steps and the dynamics
are those of the unbounded lattice.  All operations are pure: they return
a new state and never mutate their input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import PhaseMatrix
from .errors import LatticeOverflowError, PhaseCoverageError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# coin basis order: index 0 is H, index 1 is V (sigma_z eigenvalues +1, -1)
COIN_H = 0
COIN_V = 1


@dataclass
class WalkState:
    """Pure state of one walk trajectory.

    amps has shape (L, L, 2) with L = 2 * half_width + 1; the amplitude of
    site (i, j) with coin c sits at amps[i + half_width, j + half_width, c].
    The coin and shift functions act on the trailing (L, L, 2) axes only, so
    an amps array with leading batch axes is a stack of walk states; the
    exact oracle uses this to apply the walk unitary to a density matrix.
    """

    amps: np.ndarray
    half_width: int
    step_count: int = 0

    @property
    def grid_size(self) -> int:
        return 2 * self.half_width + 1

    def probabilities(self) -> np.ndarray:
        """(L, L) grid of site probabilities p(i, j) = |aH|^2 + |aV|^2."""
        a = self.amps
        return np.abs(a[..., 0]) ** 2 + np.abs(a[..., 1]) ** 2

    def norm(self) -> float:
        """Total probability, the sum of the site probabilities."""
        return float(self.probabilities().sum())


def initial_state(half_width: int) -> WalkState:
    """Walker at the central site (0, 0) in the coin state (|H> + i|V>)/sqrt(2).

    half_width fixes the grid size; each step needs one more ring, from
    pad_ring or from a larger half_width here.
    """
    if half_width < 0:
        raise ValueError(f"half_width must be >= 0, got {half_width!r}")
    size = 2 * half_width + 1
    amps = np.zeros((size, size, 2), dtype=np.complex128)
    amps[half_width, half_width, COIN_H] = _INV_SQRT2
    amps[half_width, half_width, COIN_V] = 1j * _INV_SQRT2
    return WalkState(amps, half_width, step_count=0)


def pad_ring(state: WalkState) -> WalkState:
    """The same state on a grid one site wider on every side; the new ring is empty.

    Acts on the trailing (L, L, 2) axes, like the coin and the shifts.
    """
    a = state.amps
    out = np.zeros(a.shape[:-3] + (a.shape[-3] + 2, a.shape[-2] + 2, 2), dtype=a.dtype)
    out[..., 1:-1, 1:-1, :] = a
    return WalkState(out, state.half_width + 1, state.step_count)


def apply_coin(state: WalkState) -> WalkState:
    """Hadamard coin at every site: (aH, aV) -> ((aH+aV), (aH-aV))/sqrt(2)."""
    a = state.amps
    out = np.empty_like(a)
    out[..., COIN_H] = (a[..., COIN_H] + a[..., COIN_V]) * _INV_SQRT2
    out[..., COIN_V] = (a[..., COIN_H] - a[..., COIN_V]) * _INV_SQRT2
    return WalkState(out, state.half_width, state.step_count)


def apply_shift_x(state: WalkState) -> WalkState:
    """Conditional shift along x: H amplitude to (i-1, j), V to (i+1, j)."""
    a = state.amps
    if a[..., 0, :, COIN_H].any() or a[..., -1, :, COIN_V].any():
        raise LatticeOverflowError(
            f"x shift would move amplitude past |i| = {state.half_width}"
        )
    out = np.zeros_like(a)
    out[..., :-1, :, COIN_H] = a[..., 1:, :, COIN_H]
    out[..., 1:, :, COIN_V] = a[..., :-1, :, COIN_V]
    return WalkState(out, state.half_width, state.step_count)


def apply_shift_y(state: WalkState) -> WalkState:
    """Conditional shift along y: H amplitude to (i, j-1), V to (i, j+1)."""
    a = state.amps
    if a[..., 0, COIN_H].any() or a[..., -1, COIN_V].any():
        raise LatticeOverflowError(
            f"y shift would move amplitude past |j| = {state.half_width}"
        )
    out = np.zeros_like(a)
    out[..., :-1, COIN_H] = a[..., 1:, COIN_H]
    out[..., 1:, COIN_V] = a[..., :-1, COIN_V]
    return WalkState(out, state.half_width, state.step_count)


def apply_dephasing(state: WalkState, phases: PhaseMatrix) -> WalkState:
    """Per-site coin phase kick: aH -> e^{-i phi/2} aH, aV -> e^{+i phi/2} aV.

    The relative H-V phase at site (i, j) changes by exactly phi(i, j);
    site probabilities are untouched.  Raises PhaseCoverageError unless the
    phases are a scalar or a grid of exactly the state's (L, L) shape.

    The amplitude is always the first factor.  Complex products round
    differently with the operands swapped, and numpy swaps them on its own
    when it reuses a large temporary such as np.conj(half_turn), which would
    make a site's result depend on the grid size.
    """
    values = phases.values
    if values.ndim and values.shape != state.amps.shape[-3:-1]:
        raise PhaseCoverageError(
            f"phases of shape {values.shape} do not match the state's "
            f"{state.grid_size}x{state.grid_size} grid"
        )
    half_turn = np.exp(-0.5j * values)
    out = np.empty_like(state.amps)
    np.multiply(state.amps[..., COIN_H], half_turn, out=out[..., COIN_H])
    np.multiply(state.amps[..., COIN_V], np.conj(half_turn), out=out[..., COIN_V])
    return WalkState(out, state.half_width, state.step_count)
