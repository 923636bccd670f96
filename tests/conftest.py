import numpy as np
import pytest

from qwalk2d import PhaseSampler, initial_state, step


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


def walk_states(config, trajectory_index=0):
    """States after 0..config.steps steps of one trajectory, rebuilt from
    PhaseSampler and step as run_trajectory evolves them."""
    sampler = PhaseSampler(config, trajectory_index)
    states = [initial_state(config.steps)]
    for n in range(1, config.steps + 1):
        states.append(step(states[-1], sampler.phases_for_step(n, config.steps)))
    return states


@pytest.fixture
def rng():
    return np.random.default_rng(20210501)
