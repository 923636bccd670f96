import math

import numpy as np
import pytest

import qwalk2d.ensemble as ensemble
import qwalk2d.evolve as evolve
from qwalk2d import (
    ConfigError,
    DisorderConfig,
    DisorderMode,
    InvariantViolationError,
    PhaseSampler,
    TrajectoryFailure,
    exact_run,
    merge_results,
    run_ensemble,
    run_trajectory,
    variance_series,
)


def config(mode=DisorderMode.DYNAMICAL_SPATIAL, zeta=math.pi, steps=8,
           realizations=64, seed=3):
    return DisorderConfig(mode, zeta, steps=steps, realizations=realizations,
                          master_seed=seed)


class TestRunEnsemble:
    def test_single_trajectory_average_is_the_trajectory(self):
        cfg = config(realizations=1)
        ens = run_ensemble(cfg)
        traj = run_trajectory(cfg, 0)
        np.testing.assert_array_equal(ens.mean_probabilities, traj.probabilities)
        np.testing.assert_array_equal(
            ens.variances, variance_series(traj.probabilities, traj.half_width))
        assert np.all(ens.variance_stderr == 0.0)

    def test_zero_noise_has_zero_spread_and_matches_exact(self):
        cfg = config(zeta=0.0, realizations=40)
        ens = run_ensemble(cfg)
        # every trajectory is bit-identical; the stderr estimate only picks
        # up rounding from re-averaging identical floats
        rows = ens.per_trajectory_variances
        assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))
        assert float(np.abs(ens.variance_stderr).max()) <= 1e-12
        exact = exact_run(cfg)
        np.testing.assert_allclose(ens.variances, exact.variances, atol=1e-10)

    def test_distribution_sums_to_one_each_step(self):
        ens = run_ensemble(config())
        sums = ens.mean_probabilities.sum(axis=(1, 2))
        assert np.abs(sums - 1.0).max() <= 1e-9

    def test_variance_starts_at_zero(self):
        ens = run_ensemble(config())
        assert ens.variances[0] == 0.0

    def test_elapsed_time_recorded(self):
        assert run_ensemble(config(realizations=4)).elapsed_seconds > 0.0

    def test_bad_thread_count_rejected(self):
        with pytest.raises(ConfigError):
            run_ensemble(config(), threads=0)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigError):
            run_ensemble(config(realizations=8), traj_start=4, traj_stop=4)
        with pytest.raises(ConfigError):
            run_ensemble(config(realizations=8), traj_stop=9)

    def test_failing_trajectory_reports_its_index(self, monkeypatch):
        class FailingSampler(PhaseSampler):
            def __init__(self, cfg, k):
                super().__init__(cfg, k)
                self.index = k

            def phases_for_step(self, step, half_width):
                if self.index == 3:
                    raise ValueError("synthetic")
                return super().phases_for_step(step, half_width)

        monkeypatch.setattr(evolve, "PhaseSampler", FailingSampler)
        with pytest.raises(TrajectoryFailure, match="trajectory 3"):
            run_ensemble(config(realizations=8))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_average_rejected(self, bad):
        from qwalk2d.ensemble import _finalize

        cfg = config(steps=2, realizations=1)
        mean = np.zeros((3, 5, 5))
        mean[:, 2, 2] = 1.0
        mean[1, 2, 2] = bad
        with pytest.raises(InvariantViolationError, match="step 1"):
            _finalize(cfg, [(0, 1)], mean, np.zeros((1, 3)))


def reference_chunk(cfg, start, stop):
    """The chunk reduction one trajectory at a time: run_trajectory's
    stacks summed in index order, and variance_series of each."""
    prob_sum = run_trajectory(cfg, start).probabilities
    rows = [variance_series(prob_sum, cfg.steps)]
    for k in range(start + 1, stop):
        probs = run_trajectory(cfg, k).probabilities
        prob_sum += probs
        rows.append(variance_series(probs, cfg.steps))
    return prob_sum, np.array(rows)


class TestBatchedChunk:
    """The grouped chunk must give the bits of the one-at-a-time reduction."""

    def test_group_width_follows_the_step_count(self):
        assert ensemble._group_width(20) == ensemble.CHUNK_SIZE == 32
        assert ensemble._group_width(64) == 7
        assert ensemble._group_width(100) == 3
        assert ensemble._group_width(1000) == 1

    # at N=64 the whole grid passes 16384 sites, where numpy starts to reuse
    # temporaries; 9 trajectories make a group of 7 and a ragged one of 2
    @pytest.mark.parametrize("mode,zeta", [(DisorderMode.NONE, 0.0),
                                           (DisorderMode.DYNAMICAL_SPATIAL, math.pi),
                                           (DisorderMode.STATIC_SPATIAL, 1.0),
                                           (DisorderMode.DYNAMICAL_UNIFORM, math.pi)])
    def test_chunk_matches_one_trajectory_at_a_time(self, mode, zeta):
        cfg = config(mode, zeta, steps=64, realizations=9, seed=17)
        start, prob_sum, var_rows = ensemble._run_chunk((cfg, 0, 9))
        ref_sum, ref_rows = reference_chunk(cfg, 0, 9)
        assert start == 0
        np.testing.assert_array_equal(prob_sum, ref_sum)
        np.testing.assert_array_equal(var_rows, ref_rows)

    @pytest.mark.parametrize("group_bytes", [1, 1 << 40], ids=["width-1", "width-chunk"])
    def test_group_width_changes_no_bit(self, monkeypatch, group_bytes):
        cfg = config(steps=20, realizations=37, seed=5)
        base = run_ensemble(cfg)
        monkeypatch.setattr(ensemble, "GROUP_BYTES", group_bytes)
        other = run_ensemble(cfg)
        np.testing.assert_array_equal(other.mean_probabilities, base.mean_probabilities)
        np.testing.assert_array_equal(other.per_trajectory_variances,
                                      base.per_trajectory_variances)

    def test_ragged_last_chunk_and_group(self):
        # R=37 at N=20: chunks [0, 32) and [32, 37), the second one group of 5
        cfg = config(steps=20, realizations=37, seed=424242)
        ens = run_ensemble(cfg)
        lo_sum, lo_rows = reference_chunk(cfg, 0, 32)
        hi_sum, hi_rows = reference_chunk(cfg, 32, 37)
        lo_sum += hi_sum
        np.testing.assert_array_equal(ens.mean_probabilities, lo_sum / 37)
        np.testing.assert_array_equal(ens.per_trajectory_variances,
                                      np.concatenate([lo_rows, hi_rows]))


class TestParallelDeterminism:
    def test_identical_results_for_1_2_4_8_workers(self):
        # R=70: three chunks, the last one ragged, so two workers share them
        cfg = config(realizations=70)
        base = run_ensemble(cfg, threads=1)
        for threads in (2, 4, 8):
            other = run_ensemble(cfg, threads=threads)
            np.testing.assert_array_equal(other.mean_probabilities,
                                          base.mean_probabilities)
            np.testing.assert_array_equal(other.variances, base.variances)
            np.testing.assert_array_equal(other.variance_stderr,
                                          base.variance_stderr)
            np.testing.assert_array_equal(other.per_trajectory_variances,
                                          base.per_trajectory_variances)

    @pytest.mark.parametrize("realizations,pools", [(64, [2]), (32, [])],
                             ids=["two-chunks", "one-chunk"])
    def test_worker_count_follows_the_chunks(self, monkeypatch, realizations, pools):
        made = []

        class InProcessPool:
            """Records the pool size it is asked for and maps in-process."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", InProcessPool)
        cfg = config(steps=4, realizations=realizations)
        result = run_ensemble(cfg, threads=1000)
        assert made == pools
        np.testing.assert_array_equal(result.mean_probabilities,
                                      run_ensemble(cfg, threads=1).mean_probabilities)


class TestStatisticalSanity:
    def test_two_master_seeds_agree_within_error_bars(self):
        # full-scale run, 20 steps; error bars must cover seed choice
        a = run_ensemble(config(steps=20, realizations=500, seed=424242), threads=2)
        b = run_ensemble(config(steps=20, realizations=500, seed=31337), threads=2)
        combined = math.hypot(a.variance_stderr[20], b.variance_stderr[20])
        assert abs(a.variances[20] - b.variances[20]) < 5.0 * combined

    def test_variance_nondecreasing_in_diffusive_regime(self):
        ens = run_ensemble(config(steps=20, realizations=200, seed=5), threads=2)
        assert np.all(np.diff(ens.variances) >= 0.0)


class TestMerge:
    def test_merge_of_single_partial_is_identity(self):
        full = run_ensemble(config())
        merged = merge_results([full])
        np.testing.assert_array_equal(merged.mean_probabilities,
                                      full.mean_probabilities)
        assert merged.traj_ranges == full.traj_ranges

    def test_split_merge_equals_full_run(self):
        cfg = config(realizations=100, seed=21)
        full = run_ensemble(cfg)
        lo = run_ensemble(cfg, traj_start=0, traj_stop=47)
        hi = run_ensemble(cfg, traj_start=47, traj_stop=100)
        merged = merge_results([hi, lo])   # order must not matter
        assert merged.traj_ranges == [(0, 100)]
        assert merged.trajectory_count == 100
        np.testing.assert_allclose(merged.mean_probabilities,
                                   full.mean_probabilities, atol=1e-12)
        np.testing.assert_allclose(merged.variances, full.variances, atol=1e-12)
        np.testing.assert_allclose(merged.variance_stderr,
                                   full.variance_stderr, atol=1e-12)

    def test_disjoint_ranges_with_gap_allowed(self):
        cfg = config(realizations=64)
        a = run_ensemble(cfg, traj_start=0, traj_stop=24)
        b = run_ensemble(cfg, traj_start=40, traj_stop=64)
        merged = merge_results([b, a])
        assert merged.traj_ranges == [(0, 24), (40, 64)]
        assert merged.trajectory_count == 48
        sums = merged.mean_probabilities.sum(axis=(1, 2))
        assert np.abs(sums - 1.0).max() <= 1e-9

    def test_overlapping_ranges_rejected(self):
        cfg = config(realizations=64)
        a = run_ensemble(cfg, traj_start=0, traj_stop=40)
        b = run_ensemble(cfg, traj_start=32, traj_stop=64)
        with pytest.raises(ConfigError):
            merge_results([a, b])

    def test_mismatched_configs_rejected(self):
        a = run_ensemble(config(seed=1, realizations=8))
        b = run_ensemble(config(seed=2, realizations=8))
        with pytest.raises(ConfigError):
            merge_results([a, b])

    def test_empty_merge_rejected(self):
        with pytest.raises(ConfigError):
            merge_results([])
