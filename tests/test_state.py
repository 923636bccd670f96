import numpy as np
import pytest

from qwalk2d import (
    COIN_H,
    COIN_V,
    DisorderConfig,
    DisorderMode,
    LatticeOverflowError,
    PhaseCoverageError,
    PhaseMatrix,
    PhaseSampler,
    WalkState,
    apply_coin,
    apply_dephasing,
    apply_shift_x,
    apply_shift_y,
    initial_state,
    variance_series,
)
from conftest import random_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def single_site_state(i, j, ah, av, half_width=3):
    size = 2 * half_width + 1
    amps = np.zeros((size, size, 2), dtype=np.complex128)
    amps[i + half_width, j + half_width] = (ah, av)
    return WalkState(amps, half_width)


class TestInitialState:
    def test_all_probability_at_origin(self):
        s = initial_state(3)
        assert s.probabilities()[3, 3] == pytest.approx(1.0, abs=1e-12)
        assert s.norm() == pytest.approx(1.0, abs=1e-12)
        assert s.step_count == 0

    def test_coin_amplitudes(self):
        ah, av = initial_state(2).amps[2, 2]
        assert ah == pytest.approx(INV_SQRT2, abs=1e-15)
        assert av == pytest.approx(1j * INV_SQRT2, abs=1e-15)
        # aV = i * aH
        assert av == pytest.approx(1j * ah, abs=1e-15)

    def test_delta_distribution_has_zero_variance(self):
        assert variance_series(initial_state(2).probabilities()[np.newaxis], 2)[0] == 0.0


class TestCoin:
    def test_pure_h_input(self):
        out = apply_coin(single_site_state(0, 0, 1.0, 0.0))
        ah, av = out.amps[3, 3]
        assert ah == pytest.approx(INV_SQRT2, abs=1e-15)
        assert av == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_involution(self, rng):
        s = random_state(rng)
        twice = apply_coin(apply_coin(s))
        np.testing.assert_allclose(twice.amps, s.amps, atol=1e-15)

    def test_initial_coin_state_mixes_to_known_pair(self):
        out = apply_coin(single_site_state(0, 0, INV_SQRT2, 1j * INV_SQRT2))
        ah, av = out.amps[3, 3]
        assert ah == pytest.approx((1 + 1j) / 2, abs=1e-15)
        assert av == pytest.approx((1 - 1j) / 2, abs=1e-15)

    def test_norm_preserved(self, rng):
        s = random_state(rng)
        assert apply_coin(s).norm() == pytest.approx(1.0, abs=1e-12)


class TestShifts:
    def test_h_moves_left_in_x(self):
        out = apply_shift_x(single_site_state(0, 0, 1.0, 0.0))
        assert out.amps[2, 3, COIN_H] == pytest.approx(1.0)
        assert out.probabilities()[2, 3] == pytest.approx(1.0)

    def test_v_moves_right_in_x(self):
        out = apply_shift_x(single_site_state(0, 0, 0.0, 1.0))
        assert out.amps[4, 3, COIN_V] == pytest.approx(1.0)

    def test_h_moves_down_in_y(self):
        out = apply_shift_y(single_site_state(0, 0, 1.0, 0.0))
        assert out.amps[3, 2, COIN_H] == pytest.approx(1.0)

    def test_v_moves_up_in_y(self):
        out = apply_shift_y(single_site_state(0, 0, 0.0, 1.0))
        assert out.amps[3, 4, COIN_V] == pytest.approx(1.0)

    def test_superposition_norm_preserved(self, rng):
        s = random_state(rng)
        assert apply_shift_x(s).norm() == pytest.approx(1.0, abs=1e-12)
        assert apply_shift_y(s).norm() == pytest.approx(1.0, abs=1e-12)

    def test_shift_off_edge_is_detected(self):
        h = 2
        edge = single_site_state(-h, 0, 1.0, 0.0, half_width=h)
        with pytest.raises(LatticeOverflowError):
            apply_shift_x(edge)
        edge_v = single_site_state(0, h, 0.0, 1.0, half_width=h)
        with pytest.raises(LatticeOverflowError):
            apply_shift_y(edge_v)


class TestDephasing:
    def grid_phases(self, rng, half_width, zeta=np.pi):
        size = 2 * half_width + 1
        return PhaseMatrix(rng.uniform(-zeta, zeta, (size, size)))

    def test_zero_phases_are_identity(self, rng):
        s = random_state(rng)
        size = s.grid_size
        phases = PhaseMatrix(np.zeros((size, size)))
        out = apply_dephasing(s, phases)
        np.testing.assert_array_equal(out.amps, s.amps)

    def test_pi_phase_maps_pair_to_rotated_pair(self):
        a, b = 0.6 + 0.2j, -0.3 + 0.7j
        s = single_site_state(1, -1, a, b)
        size = s.grid_size
        phases = PhaseMatrix(np.full((size, size), np.pi))
        ah, av = apply_dephasing(s, phases).amps[1 + 3, -1 + 3]
        assert ah == pytest.approx(-1j * a, abs=1e-15)
        assert av == pytest.approx(1j * b, abs=1e-15)

    def test_site_probabilities_unchanged(self, rng):
        s = random_state(rng)
        out = apply_dephasing(s, self.grid_phases(rng, s.half_width))
        np.testing.assert_allclose(out.probabilities(), s.probabilities(), atol=1e-14)

    def test_relative_phase_changes_by_exactly_phi(self, rng):
        s = random_state(rng)
        phases = self.grid_phases(rng, s.half_width)
        out = apply_dephasing(s, phases)
        occupied = np.abs(s.amps[..., COIN_H]) > 0
        rel_before = np.angle(s.amps[..., COIN_V][occupied] / s.amps[..., COIN_H][occupied])
        rel_after = np.angle(out.amps[..., COIN_V][occupied] / out.amps[..., COIN_H][occupied])
        delta = np.angle(np.exp(1j * (rel_after - rel_before - phases.values[occupied])))
        np.testing.assert_allclose(delta, 0.0, atol=1e-12)

    def test_uniform_scalar_phase_broadcasts(self, rng):
        s = random_state(rng)
        scalar = PhaseMatrix(np.float64(0.8))
        grid = PhaseMatrix(np.full((s.grid_size, s.grid_size), 0.8))
        np.testing.assert_allclose(apply_dephasing(s, scalar).amps,
                                   apply_dephasing(s, grid).amps, atol=1e-15)

    def test_missing_coverage_is_a_hard_error(self, rng):
        s = random_state(rng, half_width=4)
        small = self.grid_phases(rng, 2)
        with pytest.raises(PhaseCoverageError):
            apply_dephasing(s, small)
        large = self.grid_phases(rng, 5)
        with pytest.raises(PhaseCoverageError):
            apply_dephasing(s, large)
        cfg = DisorderConfig(DisorderMode.DYNAMICAL_SPATIAL, np.pi, steps=3,
                             realizations=1, master_seed=0)
        with pytest.raises(PhaseCoverageError):
            PhaseSampler(cfg, 0).phases_for_step(1, 4)

    def test_stack_of_grids_kicks_each_state(self, rng):
        states = [random_state(rng) for _ in range(3)]
        phases = [self.grid_phases(rng, 4) for _ in states]
        stack = WalkState(np.stack([s.amps for s in states]), 4)
        out = apply_dephasing(stack, PhaseMatrix(np.stack([p.values for p in phases])))
        for b, (s, p) in enumerate(zip(states, phases)):
            np.testing.assert_array_equal(out.amps[b], apply_dephasing(s, p).amps)

    def test_stack_mismatch_is_a_hard_error(self, rng):
        single = random_state(rng)
        stack = WalkState(np.stack([single.amps] * 3), 4)
        grid = self.grid_phases(rng, 4)
        for state, values in ((stack, grid.values),
                              (stack, np.stack([grid.values] * 2)),
                              (single, np.stack([grid.values] * 3))):
            with pytest.raises(PhaseCoverageError):
                apply_dephasing(state, PhaseMatrix(values))

    def test_norm_preserved(self, rng):
        s = random_state(rng)
        out = apply_dephasing(s, self.grid_phases(rng, s.half_width))
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


class TestStructuralInvariants:
    def test_random_op_sequences_conserve_norm(self, rng):
        s = random_state(rng, half_width=36, support=4)
        ops = [apply_coin, apply_shift_x, apply_coin, apply_shift_y]
        for _ in range(30):
            s = ops[rng.integers(len(ops))](s)
        assert abs(s.norm() - 1.0) <= 1e-12

    def test_real_states_stay_real_under_coin_and_shifts(self, rng):
        s = random_state(rng, half_width=6, support=2, real=True)
        for op in (apply_coin, apply_shift_x, apply_coin, apply_shift_y):
            s = op(s)
            assert np.abs(s.amps.imag).max() == 0.0
