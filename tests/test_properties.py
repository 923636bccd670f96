"""Property tests for the walk unitary that both engines share."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk2d import (
    DisorderConfig,
    DisorderMode,
    PhaseMatrix,
    WalkState,
    apply_coin,
    apply_shift_x,
    apply_shift_y,
    density_from_state,
    exact_step_density,
    step,
)
from conftest import random_state

seeds = st.integers(0, 2**32 - 1)
half_widths = st.integers(1, 4)


class TestSharedUnitary:
    @settings(deadline=None)
    @given(seed=seeds, half_width=half_widths)
    def test_oracle_step_conjugates_with_the_trajectory_step(self, seed, half_width):
        psi = random_state(np.random.default_rng(seed), half_width)
        cfg = DisorderConfig(DisorderMode.NONE, 0.0, steps=half_width, realizations=1,
                             master_seed=0)
        got = exact_step_density(density_from_state(psi), cfg).rho
        want = density_from_state(step(psi, PhaseMatrix(np.float64(0.0), None, 1))).rho
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(seed=seeds, half_width=half_widths)
    def test_norm_preserved(self, seed, half_width):
        rng = np.random.default_rng(seed)
        psi = random_state(rng, half_width)
        size = 2 * half_width + 1
        phases = PhaseMatrix(rng.uniform(-np.pi, np.pi, size=(size, size)), half_width, 1)
        assert abs(step(psi, phases).norm() - 1.0) <= 1e-12
        cfg = DisorderConfig(DisorderMode.DYNAMICAL_SPATIAL, np.pi, steps=half_width,
                             realizations=1, master_seed=0)
        assert abs(exact_step_density(density_from_state(psi), cfg).trace() - 1.0) <= 1e-12

    @settings(deadline=None)
    @given(seed=seeds, half_width=half_widths, batch=st.integers(1, 3))
    def test_stacked_states_match_each_slice_bit_for_bit(self, seed, half_width, batch):
        rng = np.random.default_rng(seed)
        states = [random_state(rng, half_width) for _ in range(batch)]
        stack = WalkState(np.stack([s.amps for s in states]), half_width)
        for op in (apply_coin, apply_shift_x, apply_shift_y):
            stacked = op(stack).amps
            for b, state in enumerate(states):
                np.testing.assert_array_equal(stacked[b], op(state).amps)
