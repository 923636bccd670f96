"""Walker state on a 2D integer lattice with a two-level coin.

The walker lives on sites (i, j) and carries a polarization coin spanned by
|H> and |V>.  A step moves it one site along each axis, so after n steps
it can only be on the (n + 1)^2 sites with |i|, |j| <= n and
i = j = n (mod 2).  Amplitudes are stored in one of two layouts:

- the full grid of half width h: site (i, j) at [i + h, j + h] of a
  (2h + 1, 2h + 1, 2) array, zero off the walker's sites;
- the parity sublattice of step n: site (i, j) at [(i + n) / 2, (j + n) / 2]
  of an (n + 1, n + 1, 2) array.  Both engines keep their states this way.

One shift kernel, _grow(state, axis), serves both axes (axis -3 is x, -2
is y): the H amplitude keeps its index along the axis and the V amplitude
moves to the next index, in an axis one longer.  On the sublattice that is
the whole shift, since index u holds i = 2u - n before it and 2u - (n + 1)
after.  The full-grid apply_shift_x/y is _shift, the kernel followed by a
crop back to 2h + 1 rows.  The engines apply each coin and sublattice shift
together, as one fused kernel (_coin_grow) with the bits of the two in turn.
The coin and the dephasing kick act site by site, so they serve both layouts.
At half width 0 the two layouts coincide.  All operations are pure: they
return a new state and never mutate their input.
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

    amps has shape (L, L, 2): L = 2 * half_width + 1 on the full grid, and
    half_width + 1 on the parity sublattice of step half_width (see the
    module docstring for where each site sits).  The coin and shift
    functions act on the trailing (L, L, 2) axes only, so an amps array
    with leading batch axes is a stack of walk states; the exact oracle
    uses this to apply the walk unitary to a density matrix.
    """

    amps: np.ndarray
    half_width: int
    step_count: int = 0

    @property
    def grid_size(self) -> int:
        """L, the number of sites stored along each axis."""
        return self.amps.shape[-2]

    def probabilities(self) -> np.ndarray:
        """(L, L) grid of site probabilities p(i, j) = |aH|^2 + |aV|^2."""
        a = self.amps
        return np.abs(a[..., 0]) ** 2 + np.abs(a[..., 1]) ** 2

    def norm(self) -> float:
        """Total probability, the sum of the site probabilities."""
        return float(self.probabilities().sum())


def initial_state(half_width: int) -> WalkState:
    """Walker at the central site (0, 0) in the coin state (|H> + i|V>)/sqrt(2).

    half_width fixes the full grid, which holds that many steps.  At half
    width 0 the one site is also the parity sublattice of step 0, where
    both engines start.
    """
    if half_width < 0:
        raise ValueError(f"half_width must be >= 0, got {half_width!r}")
    size = 2 * half_width + 1
    amps = np.zeros((size, size, 2), dtype=np.complex128)
    amps[half_width, half_width, COIN_H] = _INV_SQRT2
    amps[half_width, half_width, COIN_V] = 1j * _INV_SQRT2
    return WalkState(amps, half_width, step_count=0)


def apply_coin(state: WalkState) -> WalkState:
    """Hadamard coin at every site: (aH, aV) -> ((aH+aV), (aH-aV))/sqrt(2)."""
    a = state.amps
    out = np.empty_like(a)
    out[..., COIN_H] = (a[..., COIN_H] + a[..., COIN_V]) * _INV_SQRT2
    out[..., COIN_V] = (a[..., COIN_H] - a[..., COIN_V]) * _INV_SQRT2
    return WalkState(out, state.half_width, state.step_count)


def _rows(axis: int, span, coin: int) -> tuple:
    """Index of the rows span along axis (-3 is x, -2 is y) of one coin
    component, over any leading batch axes."""
    return (Ellipsis, span) + (slice(None),) * (-2 - axis) + (coin,)


def _grow(state: WalkState, axis: int) -> WalkState:
    """The shift kernel along axis (-3 is x, -2 is y): H amplitude stays at
    index u, V moves to u + 1, in an axis one longer.  On the parity
    sublattice this is the whole shift, H to i - 1 and V to i + 1 (j for y)."""
    a = state.amps
    shape = list(a.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=a.dtype)
    out[_rows(axis, slice(None, -1), COIN_H)] = a[..., COIN_H]
    out[_rows(axis, slice(1, None), COIN_V)] = a[..., COIN_V]
    return WalkState(out, state.half_width, state.step_count)


def _coin_grow(state: WalkState, axis: int) -> WalkState:
    """apply_coin, then _grow along axis, bit for bit, written into one
    array: each coin output goes straight to its shifted rows, and only the
    new edge row of each coin component is zeroed.  Half the numpy calls of
    the two steps, and no intermediate state."""
    a = state.amps
    shape = list(a.shape)
    shape[axis] += 1
    out = np.empty(shape, dtype=a.dtype)
    h = out[_rows(axis, slice(None, -1), COIN_H)]
    v = out[_rows(axis, slice(1, None), COIN_V)]
    np.add(a[..., COIN_H], a[..., COIN_V], out=h)
    h *= _INV_SQRT2
    np.subtract(a[..., COIN_H], a[..., COIN_V], out=v)
    v *= _INV_SQRT2
    out[_rows(axis, -1, COIN_H)] = 0
    out[_rows(axis, 0, COIN_V)] = 0
    return WalkState(out, state.half_width, state.step_count)


def _shift(state: WalkState, axis: int) -> WalkState:
    """Conditional shift along axis on the full grid: _grow, then a crop
    back to the grid.  H's leading row and V's trailing row are dropped, and
    LatticeOverflowError is raised if either held amplitude."""
    grown = _grow(state, axis).amps
    if grown[_rows(axis, 0, COIN_H)].any() or grown[_rows(axis, -1, COIN_V)].any():
        raise LatticeOverflowError(
            f"{'xy'[axis + 3]} shift would move amplitude past "
            f"|{'ij'[axis + 3]}| = {state.half_width}"
        )
    out = np.empty_like(state.amps)
    out[..., COIN_H] = grown[_rows(axis, slice(1, None), COIN_H)]
    out[..., COIN_V] = grown[_rows(axis, slice(None, -1), COIN_V)]
    return WalkState(out, state.half_width, state.step_count)


def apply_shift_x(state: WalkState) -> WalkState:
    """Full-grid shift along x: H amplitude to (i-1, j), V to (i+1, j)."""
    return _shift(state, -3)


def apply_shift_y(state: WalkState) -> WalkState:
    """Full-grid shift along y: H amplitude to (i, j-1), V to (i, j+1)."""
    return _shift(state, -2)


def apply_dephasing(state: WalkState, phases: PhaseMatrix) -> WalkState:
    """Per-site coin phase kick: aH -> e^{-i phi/2} aH, aV -> e^{+i phi/2} aV.

    The relative H-V phase at site (i, j) changes by exactly phi(i, j);
    site probabilities are untouched.  Raises PhaseCoverageError unless the
    phases are a scalar or an array of exactly the shape of amps without
    its coin axis: (L, L) for one state, (B, L, L) for a stack of B.

    The amplitude is always the first factor.  Complex products round
    differently with the operands swapped, and numpy swaps them on its own
    when it reuses a large temporary such as np.conj(half_turn), which would
    make a site's result depend on the grid size.
    """
    values = phases.values
    if values.ndim and values.shape != state.amps.shape[:-1]:
        raise PhaseCoverageError(
            f"phases of shape {values.shape} do not match the state's "
            f"sites, {state.amps.shape[:-1]}"
        )
    half_turn = np.asarray(-0.5j * values)
    np.exp(half_turn, out=half_turn)
    out = np.empty_like(state.amps)
    np.multiply(state.amps[..., COIN_H], half_turn, out=out[..., COIN_H])
    np.multiply(state.amps[..., COIN_V], np.conj(half_turn, out=half_turn),
                out=out[..., COIN_V])
    return WalkState(out, state.half_width, state.step_count)
