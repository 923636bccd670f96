import math

import numpy as np
import pytest
from scipy.integrate import quad

from qwalk2d import (
    ConfigError,
    DisorderConfig,
    DisorderMode,
    PhaseSampler,
    derive_trajectory_seed,
    trajectory_rng,
)


def config(mode, zeta, steps=10, realizations=4, seed=0):
    return DisorderConfig(mode, zeta, steps=steps, realizations=realizations,
                          master_seed=seed)


class TestConfigValidation:
    def test_zeta_above_pi_rejected(self):
        with pytest.raises(ConfigError):
            config(DisorderMode.DYNAMICAL_SPATIAL, 4.0)

    def test_negative_zeta_rejected(self):
        with pytest.raises(ConfigError):
            config(DisorderMode.DYNAMICAL_SPATIAL, -0.1)

    def test_zeta_endpoints_accepted(self):
        config(DisorderMode.DYNAMICAL_SPATIAL, 0.0)
        config(DisorderMode.DYNAMICAL_SPATIAL, math.pi)

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            config(DisorderMode.NONE, 0.0, steps=0)
        with pytest.raises(ConfigError):
            config(DisorderMode.NONE, 0.0, realizations=0)

    @pytest.mark.parametrize("field", ["steps", "realizations", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, True, "4"])
    def test_non_integer_counts_rejected(self, field, value):
        kwargs = {"steps": 10, "realizations": 4, "master_seed": 0, field: value}
        with pytest.raises(ConfigError, match=field):
            DisorderConfig(DisorderMode.DYNAMICAL_SPATIAL, math.pi, **kwargs)

    def test_numpy_integers_accepted(self):
        cfg = DisorderConfig(DisorderMode.NONE, 0.0, steps=np.int64(3),
                             realizations=np.int32(2), master_seed=np.uint64(7))
        assert cfg.steps == 3

    def test_seed_range_enforced(self):
        with pytest.raises(ConfigError):
            config(DisorderMode.NONE, 0.0, seed=-1)
        with pytest.raises(ConfigError):
            config(DisorderMode.NONE, 0.0, seed=1 << 64)
        config(DisorderMode.NONE, 0.0, seed=(1 << 64) - 1)

    def test_mode_accepts_string_values(self):
        cfg = config("static-spatial", 1.0)
        assert cfg.mode is DisorderMode.STATIC_SPATIAL


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trajectory_seed(5, 9) == derive_trajectory_seed(5, 9)

    def test_distinct_over_many_indices(self):
        seeds = {derive_trajectory_seed(424242, k) for k in range(10_000)}
        assert len(seeds) == 10_000

    def test_output_is_64_bit(self):
        for k in (0, 1, 123456789):
            s = derive_trajectory_seed((1 << 64) - 1, k)
            assert 0 <= s < (1 << 64)

    def test_streams_are_statistically_independent(self):
        # 1000 streams of 1000 uniforms; under the i.i.d. null a pairwise
        # correlation has sd 1/sqrt(1000).  The mean over all pairs must
        # vanish, the 2-sigma exceedance rate must match the null, and no
        # pair may exceed a family-wise 6-sigma bound (the expected maximum
        # over the 499500 pairs is already about 4.8 sigma, so a uniform
        # 4-sigma cut is not attainable for an honest generator).
        n_streams, n_draws = 1000, 1000
        draws = np.empty((n_streams, n_draws))
        for k in range(n_streams):
            draws[k] = trajectory_rng(0, k).uniform(size=n_draws)
        centered = draws - draws.mean(axis=1, keepdims=True)
        centered /= np.sqrt((centered ** 2).sum(axis=1, keepdims=True))
        corr = centered @ centered.T
        pairs = corr[np.triu_indices(n_streams, k=1)]
        sigma = 1.0 / math.sqrt(n_draws)
        assert abs(pairs.mean()) < 4.0 * sigma
        assert abs(pairs.mean()) < 1e-4
        assert np.abs(pairs).max() < 6.0 * sigma
        exceed = float((np.abs(pairs) > 2.0 * sigma).mean())
        assert exceed == pytest.approx(0.0455, abs=0.005)


class TestPhaseGeneration:
    def test_zeta_zero_gives_zero_matrix(self):
        for mode in DisorderMode:
            sampler = PhaseSampler(config(mode, 0.0), 0)
            pm = sampler.phases_for_step(1, 5)
            assert pm.is_uniform
            assert float(pm.values) == 0.0

    def test_none_mode_gives_zero_matrix_at_any_zeta(self):
        sampler = PhaseSampler(config(DisorderMode.NONE, math.pi), 0)
        assert float(sampler.phases_for_step(3, 5).values) == 0.0

    def test_uniform_mode_same_phase_on_all_sites(self):
        sampler = PhaseSampler(config(DisorderMode.DYNAMICAL_UNIFORM, math.pi), 0)
        pm = sampler.phases_for_step(1, 5)
        assert pm.is_uniform
        grid = pm.values_for(5)
        assert np.ndim(grid) == 0

    def test_uniform_mode_changes_between_steps(self):
        sampler = PhaseSampler(config(DisorderMode.DYNAMICAL_UNIFORM, math.pi), 0)
        values = [float(sampler.phases_for_step(n, 5).values) for n in range(1, 6)]
        assert len(set(values)) == len(values)

    def test_dynamical_spatial_redraws_each_step(self):
        sampler = PhaseSampler(config(DisorderMode.DYNAMICAL_SPATIAL, math.pi), 0)
        a = sampler.phases_for_step(1, 5).values
        b = sampler.phases_for_step(2, 5).values
        assert not np.array_equal(a, b)

    def test_static_spatial_reuses_bit_identical_phases(self):
        sampler = PhaseSampler(config(DisorderMode.STATIC_SPATIAL, math.pi), 0)
        first = sampler.phases_for_step(1, 8)
        later = sampler.phases_for_step(7, 8)
        assert later.values is first.values
        np.testing.assert_array_equal(later.values_for(8), first.values_for(8))

    def test_phases_bounded_by_zeta(self):
        zeta = 0.7
        sampler = PhaseSampler(config(DisorderMode.DYNAMICAL_SPATIAL, zeta, steps=200), 0)
        draws = np.concatenate([
            sampler.phases_for_step(n, 12).values.ravel() for n in range(1, 200)
        ])
        assert draws.size >= 100_000
        assert float(np.abs(draws).max()) <= zeta

    def test_phase_law_is_symmetric(self):
        zeta = 0.7
        sampler = PhaseSampler(config(DisorderMode.DYNAMICAL_SPATIAL, zeta, steps=200), 1)
        draws = np.concatenate([
            sampler.phases_for_step(n, 12).values.ravel() for n in range(1, 200)
        ])[:100_000]
        sigma = zeta / math.sqrt(3 * draws.size)
        assert abs(float(draws.mean())) < 4.0 * sigma

    def test_empirical_coherence_matches_quadrature(self):
        # mean of e^{i phi} over the uniform law, against direct quadrature
        zeta = math.pi
        sampler = PhaseSampler(config(DisorderMode.DYNAMICAL_SPATIAL, zeta, steps=200), 2)
        draws = np.concatenate([
            sampler.phases_for_step(n, 12).values.ravel() for n in range(1, 200)
        ])[:100_000]
        empirical = np.exp(1j * draws).mean()
        expected = quad(np.cos, -zeta, zeta)[0] / (2 * zeta)   # sin(zeta)/zeta = 0
        assert expected == pytest.approx(math.sin(zeta) / zeta, abs=1e-12)
        assert abs(empirical - expected) < 0.02

    def test_determinism_independent_of_interleaving(self):
        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, math.pi)
        solo = PhaseSampler(cfg, 0)
        expected = [solo.phases_for_step(n, 5).values.copy() for n in range(1, 5)]
        a = PhaseSampler(cfg, 0)
        b = PhaseSampler(cfg, 1)
        interleaved = []
        for n in range(1, 5):
            b.phases_for_step(n, 5)
            interleaved.append(a.phases_for_step(n, 5).values.copy())
            b.phases_for_step(n, 5)
        for want, got in zip(expected, interleaved):
            np.testing.assert_array_equal(want, got)
