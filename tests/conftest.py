import numpy as np
import pytest

from qwalk2d.disorder import PhaseSampler
from qwalk2d.state import (
    WalkState,
    apply_coin,
    apply_dephasing,
    apply_shift_x,
    apply_shift_y,
    initial_state,
)


def assert_support_ok(prob_grid, half_width, n):
    """Occupied sites after n steps must satisfy |i|,|j| <= n and i = j = n (mod 2)."""
    ii, jj = np.nonzero(prob_grid > 0.0)
    i = ii - half_width
    j = jj - half_width
    assert i.size > 0, f"step {n}: empty distribution"
    assert np.all(np.abs(i) <= n), f"step {n}: support escapes |i| <= {n}"
    assert np.all(np.abs(j) <= n), f"step {n}: support escapes |j| <= {n}"
    assert np.all((i - n) % 2 == 0), f"step {n}: x parity violated"
    assert np.all((j - n) % 2 == 0), f"step {n}: y parity violated"


def full_grid_step(state, phases):
    """One walk step on the full grid, composed from the state module's
    public kernels in the order the benchmark replay composes them: coin,
    x shift, coin, y shift, dephasing.  An independent reference for the
    engines' sublattice step."""
    out = apply_coin(state)
    out = apply_shift_x(out)
    out = apply_coin(out)
    out = apply_shift_y(out)
    out = apply_dephasing(out, phases)
    return WalkState(out.amps, state.half_width, state.step_count + 1)


def iter_walk_states(config, trajectory_index=0):
    """States after 0..config.steps steps of one trajectory, one at a time,
    rebuilt on the full grid from PhaseSampler and full_grid_step."""
    sampler = PhaseSampler(config, trajectory_index)
    state = initial_state(config.steps)
    yield state
    for n in range(1, config.steps + 1):
        state = full_grid_step(state, sampler.phases_for_step(n, state.half_width))
        yield state


def walk_states(config, trajectory_index=0):
    """The list of iter_walk_states; run_trajectory must match it bit for bit."""
    return list(iter_walk_states(config, trajectory_index))


def random_state(rng, half_width=4, support=None, real=False):
    """Normalized random state; support leaves an empty margin so shifts
    never hit the grid edge."""
    support = half_width // 2 if support is None else support
    size = 2 * half_width + 1
    inner = 2 * support + 1
    amps = np.zeros((size, size, 2), dtype=np.complex128)
    block = rng.normal(size=(inner, inner, 2))
    if not real:
        block = block + 1j * rng.normal(size=(inner, inner, 2))
    lo = half_width - support
    amps[lo:lo + inner, lo:lo + inner] = block
    amps /= np.sqrt(np.vdot(amps, amps).real)
    return WalkState(amps, half_width, step_count=0)


@pytest.fixture
def rng():
    return np.random.default_rng(20210501)
