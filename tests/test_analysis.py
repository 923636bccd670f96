import math

import numpy as np
import pytest

from qwalk2d import (
    AnalysisError,
    DisorderConfig,
    DisorderMode,
    Distribution2D,
    PhaseMatrix,
    PhaseSampler,
    WalkState,
    apply_dephasing,
    axis_cuts,
    fit_localization,
    fit_scaling_exponent,
    initial_state,
    mean_position,
    run_trajectory,
    step,
    variance_series,
)
from conftest import walk_states
from reference import ref_variance


def grid_dist(entries, half_width, step_index=0):
    size = 2 * half_width + 1
    probs = np.zeros((size, size))
    for (i, j), p in entries.items():
        probs[i + half_width, j + half_width] = p
    return Distribution2D(probs, half_width, step_index)


def grid_variance(probs, half_width):
    return variance_series(probs[np.newaxis], half_width)[0]


FIRST_STEP = {(-1, -1): 0.25, (-1, 1): 0.25, (1, -1): 0.25, (1, 1): 0.25}


class TestDistribution:
    def test_initial_state_is_delta(self):
        probs = initial_state(2).probabilities()
        assert probs[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_first_step_distribution(self):
        cfg = DisorderConfig(DisorderMode.NONE, 0.0, steps=1, realizations=1, master_seed=0)
        state = step(initial_state(1), PhaseSampler(cfg, 0).phases_for_step(1, 1))
        probs = state.probabilities()
        for (i, j), p in FIRST_STEP.items():
            assert probs[i + 1, j + 1] == pytest.approx(p, abs=1e-12)

    def test_normalization_for_random_states(self, rng):
        amps = rng.normal(size=(9, 9, 2)) + 1j * rng.normal(size=(9, 9, 2))
        amps /= np.sqrt(np.vdot(amps, amps).real)
        probs = WalkState(amps.astype(np.complex128), 4).probabilities()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestVariance:
    def test_delta_is_zero(self):
        assert grid_variance(grid_dist({(0, 0): 1.0}, 2).probs, 2) == 0.0

    def test_first_step_square(self):
        d = grid_dist(FIRST_STEP, 2)
        assert mean_position(d) == (0.0, 0.0)
        assert grid_variance(d.probs, 2) == pytest.approx(2.0, abs=1e-12)

    def test_unit_cross(self):
        d = grid_dist({(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25}, 2)
        assert grid_variance(d.probs, 2) == pytest.approx(1.0, abs=1e-12)

    def test_offset_mean_is_subtracted(self):
        d = grid_dist({(2, 1): 1.0}, 3)
        assert grid_variance(d.probs, 3) == pytest.approx(0.0, abs=1e-12)
        assert mean_position(d) == (2.0, 1.0)

    def test_series_matches_scalar_version(self, rng):
        # against the centered formula of the independent reference walker
        stack = rng.uniform(size=(4, 7, 7))
        stack /= stack.sum(axis=(1, 2), keepdims=True)
        series = variance_series(stack, 3)
        for n in range(4):
            sites = {(u - 3, v - 3): float(stack[n, u, v]) for u in range(7) for v in range(7)}
            assert series[n] == pytest.approx(ref_variance(sites), abs=1e-12)

    def test_invariant_under_dephasing(self, rng):
        cfg = DisorderConfig(DisorderMode.DYNAMICAL_SPATIAL, math.pi, steps=6,
                             realizations=1, master_seed=12)
        state = walk_states(cfg)[6]
        size = state.grid_size
        phases = PhaseMatrix(rng.uniform(-math.pi, math.pi, (size, size)),
                             state.half_width, step=7)
        before = grid_variance(state.probabilities(), 6)
        after = grid_variance(apply_dephasing(state, phases).probabilities(), 6)
        assert after == pytest.approx(before, abs=1e-12)


class TestScalingFit:
    def test_exact_quadratic(self):
        ns = np.arange(0, 21)
        fit = fit_scaling_exponent(3.0 * ns.astype(float) ** 2, 10, 20)
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_linear(self):
        ns = np.arange(0, 16)
        fit = fit_scaling_exponent(0.5 * ns.astype(float), 1, 15)
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_rejects_log_of_step_zero(self):
        with pytest.raises(AnalysisError):
            fit_scaling_exponent([0.0, 1.0, 4.0], 0, 2)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(AnalysisError):
            fit_scaling_exponent([0.0, 1.0, 0.0, 9.0], 1, 3)

    def test_rejects_window_past_series_end(self):
        with pytest.raises(AnalysisError):
            fit_scaling_exponent([0.0, 1.0, 4.0], 1, 5)


class TestAxisCuts:
    def test_delta(self):
        cuts = axis_cuts(grid_dist({(0, 0): 1.0}, 2))
        assert cuts.along_x[2] == 1.0
        assert cuts.along_x.sum() == 1.0
        assert cuts.along_y.sum() == 1.0

    def test_first_step_square_has_empty_axes(self):
        # step-1 support is the four diagonal corners; the axes hold nothing
        cuts = axis_cuts(grid_dist(FIRST_STEP, 2))
        assert cuts.along_x.sum() == 0.0
        assert cuts.along_y.sum() == 0.0

    def test_cut_values_are_grid_values(self, rng):
        probs = rng.uniform(size=(9, 9))
        probs /= probs.sum()
        d = Distribution2D(probs, 4, 0)
        cuts = axis_cuts(d)
        for idx, coord in enumerate(cuts.coords):
            assert cuts.along_x[idx] == d.prob(int(coord), 0)
            assert cuts.along_y[idx] == d.prob(0, int(coord))


class TestLocalizationFit:
    def test_exact_exponential(self):
        coords = np.arange(-15, 16)
        probs = np.exp(-np.abs(coords) / 2.0)
        fit = fit_localization(coords, probs, 2, 14)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_flat_profile_has_zero_slope(self):
        coords = np.arange(-10, 11)
        fit = fit_localization(coords, np.full(21, 0.01), 2, 8)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_parity_empty_sites_are_skipped(self):
        # zeros at odd coordinates must not enter any logarithm
        coords = np.arange(-14, 15)
        probs = np.where(coords % 2 == 0, np.exp(-np.abs(coords) / 3.0), 0.0)
        fit = fit_localization(coords, probs, 2, 14)
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points_is_an_error(self):
        coords = np.arange(-4, 5)
        probs = np.exp(-np.abs(coords.astype(float)))
        with pytest.raises(AnalysisError):
            fit_localization(coords, probs, 2, 3)

    def test_bad_window_is_an_error(self):
        coords = np.arange(-4, 5)
        with pytest.raises(AnalysisError):
            fit_localization(coords, np.ones(9), 5, 2)


class TestSymmetry:
    def test_unitary_walk_reflection_symmetry(self):
        cfg = DisorderConfig(DisorderMode.NONE, 0.0, steps=10, realizations=1,
                             master_seed=0)
        traj = run_trajectory(cfg, 0)
        p10 = traj.probabilities[10]
        assert np.abs(p10 - p10[::-1, :]).max() <= 1e-9
        assert np.abs(p10 - p10[:, ::-1]).max() <= 1e-9
