import concurrent.futures
import inspect
import math
import threading
import tracemalloc

import numpy as np
import pytest

import qwalk2d.ensemble as ensemble
import qwalk2d.evolve as evolve
from qwalk2d import (
    ConfigError,
    DisorderConfig,
    DisorderMode,
    InvariantViolationError,
    TrajectoryFailure,
    exact_run,
    run_ensemble,
    run_trajectory,
    variance_series,
)
from qwalk2d.cli import main
from qwalk2d.disorder import PhaseSampler


def config(mode=DisorderMode.DYNAMICAL_SPATIAL, zeta=math.pi, steps=8,
           realizations=64, seed=3):
    return DisorderConfig(mode, zeta, steps=steps, realizations=realizations,
                          master_seed=seed)


class TestRunEnsemble:
    def test_single_trajectory_average_is_the_trajectory(self):
        cfg = config(realizations=1)
        ens = run_ensemble(cfg)
        traj = run_trajectory(cfg, 0)
        np.testing.assert_array_equal(ens.probabilities, traj.probabilities)
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
        sums = ens.probabilities.sum(axis=(1, 2))
        assert np.abs(sums - 1.0).max() <= 1e-9

    def test_variance_starts_at_zero(self):
        ens = run_ensemble(config())
        assert ens.variances[0] == 0.0

    def test_bad_thread_count_rejected(self):
        with pytest.raises(ConfigError):
            run_ensemble(config(), threads=0)

    # the count is checked before the mean or the variance rows are allocated
    @pytest.mark.parametrize("value", [0, -1, np.int64(0)], ids=["zero", "negative", "np-zero"])
    def test_thread_count_below_one_is_config_error(self, monkeypatch, value):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the thread count check")

        monkeypatch.setattr(ensemble, "zero_windows", refuse)
        monkeypatch.setattr(ensemble, "zeroed_array", refuse)
        with pytest.raises(ConfigError, match=f"threads must be >= 1, got {value}"):
            run_ensemble(config(realizations=4), threads=value)

    def test_signature_is_config_and_threads(self):
        params = inspect.signature(run_ensemble).parameters
        assert list(params) == ["config", "threads"]
        assert params["threads"].default == 1

    # a run always covers trajectories 0..R-1; there is no range to ask for
    @pytest.mark.parametrize("keyword", ["traj_start", "traj_stop"])
    def test_range_keywords_are_not_accepted(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            run_ensemble(config(realizations=4), **{keyword: 0})

    def test_failing_trajectory_reports_its_index(self, monkeypatch):
        class FailingSampler(PhaseSampler):
            def __init__(self, cfg, k):
                super().__init__(cfg, k)
                self.index = k

            def fill_window(self, step, out, rows):
                if self.index == 3:
                    raise ValueError("synthetic")
                return super().fill_window(step, out, rows)

        monkeypatch.setattr(evolve, "PhaseSampler", FailingSampler)
        with pytest.raises(TrajectoryFailure, match="trajectory 3"):
            run_ensemble(config(realizations=8))

    # N=60, R=32: one chunk of four groups of 8 on threads lanes.  The 2nd
    # group fails at step 30; the 3rd fails at step 5, which with three
    # lanes is the first failure to happen, or runs on and is released at
    # step 30 by the 2nd group's failure, as if that group had added every
    # step
    @pytest.mark.parametrize("failures", [((9, 30), (17, 5)), ((9, 30),)],
                             ids=["2nd-and-3rd-group", "2nd-group"])
    @pytest.mark.parametrize("threads", [2, 3])
    def test_failing_lane_reports_the_serial_error_and_never_hangs(self, monkeypatch,
                                                                   threads, failures):
        class FailingSampler(PhaseSampler):
            def __init__(self, cfg, k):
                super().__init__(cfg, k)
                self.index = k

            def fill_window(self, step, out, rows):
                if (self.index, step) in failures:
                    raise ValueError("synthetic")
                return super().fill_window(step, out, rows)

        monkeypatch.setattr(evolve, "PhaseSampler", FailingSampler)
        cfg = config(steps=60, realizations=32)
        with pytest.raises(TrajectoryFailure) as serial:
            run_ensemble(cfg, threads=1)
        assert str(serial.value) == "trajectory 9 failed at step 30: synthetic"
        raised = []

        def run():
            try:
                run_ensemble(cfg, threads=threads)
            except Exception as exc:
                raised.append(exc)

        lanes = threading.Thread(target=run, daemon=True)
        lanes.start()
        lanes.join(60)
        assert not lanes.is_alive(), "a lane is still waiting for its turn"
        assert [type(exc) for exc in raised] == [TrajectoryFailure]
        assert str(raised[0]) == str(serial.value)

    # N=60, R=32: one chunk of four groups on two lanes.  The group this
    # thread runs first waits until the helper lane's group has raised, so
    # the helper runs a group however the threads are scheduled
    def test_base_exception_in_a_helper_lane_is_raised(self, monkeypatch):
        class Abort(BaseException):
            pass

        caller, add = threading.current_thread(), ensemble.add_trajectories
        helper_raised = threading.Event()

        def add_trajectories(*args):
            if threading.current_thread() is not caller:
                helper_raised.set()
                raise Abort("from a helper lane")
            assert helper_raised.wait(60)
            add(*args)

        monkeypatch.setattr(ensemble, "add_trajectories", add_trajectories)
        with pytest.raises(Abort, match="from a helper lane"):
            run_ensemble(config(steps=60, realizations=32), threads=2)

    # the CSV writer forks once the run is done, so no lane may still run
    def test_no_lane_outlives_its_chunk(self):
        before = threading.active_count()
        run_ensemble(config(steps=60, realizations=32), threads=3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_average_rejected(self, monkeypatch, bad):
        run_chunk = ensemble._run_chunk

        def poisoned(args, window_sums=None):
            start, sums, rows = run_chunk(args, window_sums)
            sums[1][0, 0] = bad
            return start, sums, rows

        monkeypatch.setattr(ensemble, "_run_chunk", poisoned)
        with pytest.raises(InvariantViolationError, match="step 1"):
            run_ensemble(config(steps=2, realizations=1))


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
        ref_sum, ref_rows = reference_chunk(cfg, 0, 9)
        size = ref_sum.shape[1]
        for lanes in (1, 2):  # on this thread, and the two groups on two threads
            start, window_sums, var_rows = ensemble._run_chunk((cfg, 0, 9, lanes))
            assert start == 0
            assert len(window_sums) == cfg.steps + 1
            for n, window in enumerate(window_sums):
                sites = evolve.sublattice_sites(n, size)
                np.testing.assert_array_equal(window, ref_sum[n, sites, sites])
            np.testing.assert_array_equal(var_rows, ref_rows)

    def test_chunk_sums_hold_only_the_sublattice(self):
        # sum_n (n + 1)^2 values, not the (N + 1) (2N + 1)^2 of a dense stack
        n_steps = 30
        _, window_sums, _ = ensemble._run_chunk((config(steps=n_steps, realizations=2), 0, 2, 1))
        assert sum(w.size for w in window_sums) == sum((n + 1) ** 2 for n in range(n_steps + 1))
        assert [w.shape for w in window_sums] == [(n + 1, n + 1) for n in range(n_steps + 1)]

    # in-process, the first chunk sums into the run's mean itself, and only
    # later chunks allocate sums of their own (the pool's chunks all do, in
    # the workers); the mean has the bits of every chunk's own sums added
    # into zeros in chunk order
    @pytest.mark.parametrize("realizations,threads,allocations",
                             [(32, 1, 1), (70, 1, 3), (70, 3, 1)],
                             ids=["one-chunk", "three-chunks", "pool"])
    def test_first_in_process_chunk_sums_into_the_mean(self, monkeypatch, realizations,
                                                       threads, allocations):
        cfg = config(realizations=realizations)
        totals = evolve.zero_windows(cfg.steps)
        for start in range(0, realizations, ensemble.CHUNK_SIZE):
            stop = min(start + ensemble.CHUNK_SIZE, realizations)
            _, sums, _ = ensemble._run_chunk((cfg, start, stop, 1))
            for total, part in zip(totals, sums):
                total += part
        calls = []
        zero_windows = ensemble.zero_windows

        def recording(steps):
            calls.append(steps)
            return zero_windows(steps)

        monkeypatch.setattr(ensemble, "zero_windows", recording)
        result = run_ensemble(cfg, threads=threads)
        assert len(calls) == allocations
        for window, total in zip(result.windows, totals):
            np.testing.assert_array_equal(window, total / realizations)

    def test_cli_run_peaks_below_one_dense_stack(self, tmp_path):
        # the whole `qwalk2d run` (walk, CSV, heatmap and result) keeps the
        # mean on the sublattice and scatters only the last step, so the
        # traced peak is about half of one dense (N + 1, 2N + 1, 2N + 1)
        # stack (3.7 MB of 7.1 MB); a run that scatters its mean onto a
        # dense stack reads about 1.5 stacks
        argv = ["run", "--mode", "dynamical-spatial", "--zeta", "pi", "--steps", "60",
                "--realizations", "4", "--seed", "3", "--threads", "1"]
        # warm-up: imports and numpy's first-call caches
        assert main(argv + ["--out-dir", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = 8 * 61 * 121 ** 2
        assert peak < dense

    @pytest.mark.parametrize("group_bytes", [1, 1 << 40], ids=["width-1", "width-chunk"])
    def test_group_width_changes_no_bit(self, monkeypatch, group_bytes):
        cfg = config(steps=20, realizations=37, seed=5)
        base = run_ensemble(cfg)
        monkeypatch.setattr(ensemble, "GROUP_BYTES", group_bytes)
        other = run_ensemble(cfg)
        np.testing.assert_array_equal(other.probabilities, base.probabilities)
        np.testing.assert_array_equal(other.per_trajectory_variances,
                                      base.per_trajectory_variances)

    def test_a_full_group_adds_its_windows_in_trajectory_order(self):
        # at N=8 a chunk of 32 is one group; its sums must be bit for bit the
        # one-at-a-time sums, step 0 included, where numpy would add the
        # (32, 1, 1) stack of one-site windows pairwise
        cfg = config(realizations=32)
        _, sums, rows = ensemble._run_chunk((cfg, 0, 32, 1))
        ref_sum, ref_rows = reference_chunk(cfg, 0, 32)
        for window, ref in zip(sums, ref_sum):
            assert evolve.scatter_window(window, cfg.steps).probs.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(rows, ref_rows)

    def test_ragged_last_chunk_and_group(self):
        # R=37 at N=20: chunks [0, 32) and [32, 37), the second one group of 5
        cfg = config(steps=20, realizations=37, seed=424242)
        ens = run_ensemble(cfg)
        lo_sum, lo_rows = reference_chunk(cfg, 0, 32)
        hi_sum, hi_rows = reference_chunk(cfg, 32, 37)
        lo_sum += hi_sum
        np.testing.assert_array_equal(ens.probabilities, lo_sum / 37)
        np.testing.assert_array_equal(ens.per_trajectory_variances,
                                      np.concatenate([lo_rows, hi_rows]))


class TestChunkReduction:
    """A run is its chunks of CHUNK_SIZE trajectories, reduced in chunk
    order, whatever R is and however many workers run them."""

    # one trajectory, a partial chunk, one full chunk, one past it, two full
    @pytest.mark.parametrize("realizations", [1, 31, 32, 33, 64],
                             ids=["one", "partial", "full", "one-past", "two-full"])
    def test_chunk_boundaries_match_the_one_at_a_time_reduction(self, realizations):
        cfg = config(realizations=realizations, seed=21)
        ens = run_ensemble(cfg)
        total, rows = None, []
        for start in range(0, realizations, ensemble.CHUNK_SIZE):
            part, part_rows = reference_chunk(
                cfg, start, min(start + ensemble.CHUNK_SIZE, realizations))
            total = part if total is None else total + part
            rows.append(part_rows)
        np.testing.assert_array_equal(ens.probabilities, total / realizations)
        np.testing.assert_array_equal(ens.per_trajectory_variances, np.concatenate(rows))

    # R=70 is three chunks; at threads=3 each runs in a pool worker
    @pytest.mark.parametrize("threads", [1, 3])
    def test_row_k_is_trajectory_k(self, threads):
        cfg = config(realizations=70, seed=8)
        rows = run_ensemble(cfg, threads=threads).per_trajectory_variances
        assert rows.shape == (70, cfg.steps + 1)
        for k in range(70):
            want = variance_series(run_trajectory(cfg, k).probabilities, cfg.steps)
            np.testing.assert_array_equal(rows[k], want)

    def test_variance_stderr_is_the_spread_of_the_rows(self):
        ens = run_ensemble(config(realizations=40, seed=4))
        rows = ens.per_trajectory_variances
        np.testing.assert_array_equal(ens.variance_stderr,
                                      rows.std(axis=0, ddof=1) / np.sqrt(40))

    @staticmethod
    def chunk(start, rows, value):
        """A fake chunk result: two one-site windows holding value, and
        rows variance rows of two steps numbered from start."""
        var_rows = np.arange(start, start + rows, dtype=float)[:, None].repeat(2, axis=1)
        return start, [np.full((1, 1), value), np.full((1, 1), 2 * value)], var_rows

    def test_sum_chunks_adds_in_chunk_order_and_places_rows(self):
        sums = [np.zeros((1, 1)), np.zeros((1, 1))]
        rows = np.full((7, 2), -1.0)
        ensemble._sum_chunks([self.chunk(0, 3, 0.5), self.chunk(3, 3, 0.25),
                              self.chunk(6, 1, 0.125)], sums, rows)
        assert [float(w[0, 0]) for w in sums] == [0.875, 1.75]
        np.testing.assert_array_equal(rows, np.arange(7.0)[:, None].repeat(2, axis=1))

    def test_a_first_chunk_that_is_the_sums_is_not_added_again(self):
        start, sums, var_rows = self.chunk(0, 2, 0.5)
        rows = np.empty((3, 2))
        ensemble._sum_chunks([(start, sums, var_rows), self.chunk(2, 1, 0.25)], sums, rows)
        assert [float(w[0, 0]) for w in sums] == [0.75, 1.5]

    @pytest.mark.parametrize("starts", [(2, 0), (0, 3), (0, 0)],
                             ids=["swapped", "gap", "repeated"])
    def test_sum_chunks_rejects_chunks_out_of_order(self, starts):
        sums = [np.zeros((1, 1)), np.zeros((1, 1))]
        rows = np.empty((6, 2))
        with pytest.raises(AssertionError, match="out of order"):
            ensemble._sum_chunks([self.chunk(start, 2, 1.0) for start in starts], sums, rows)


class TestParallelDeterminism:
    # R=70: three chunks, the last one ragged, so two workers share them;
    # threads=1 runs the serial path again
    def test_identical_results_for_1_2_4_8_workers(self):
        cfg = config(realizations=70)
        base = run_ensemble(cfg, threads=1)
        for threads in (1, 2, 4, 8):
            other = run_ensemble(cfg, threads=threads)
            np.testing.assert_array_equal(other.probabilities,
                                          base.probabilities)
            np.testing.assert_array_equal(other.variances, base.variances)
            np.testing.assert_array_equal(other.variance_stderr,
                                          base.variance_stderr)
            np.testing.assert_array_equal(other.per_trajectory_variances,
                                          base.per_trajectory_variances)

    # at N=60 a group is 8 trajectories: R=32 is one chunk of 4 groups, run
    # on min(threads, 4) lanes
    def test_identical_results_for_1_2_3_8_lanes(self):
        cfg = config(steps=60, realizations=32)
        base = run_ensemble(cfg, threads=1)
        for threads in (2, 3, 8):
            other = run_ensemble(cfg, threads=threads)
            np.testing.assert_array_equal(other.probabilities, base.probabilities)
            np.testing.assert_array_equal(other.variances, base.variances)
            np.testing.assert_array_equal(other.variance_stderr, base.variance_stderr)
            np.testing.assert_array_equal(other.per_trajectory_variances,
                                          base.per_trajectory_variances)

    # at N=4 a chunk is one group, so no lane starts however many threads
    # are asked for; at N=60 a chunk of 32 is 4 groups and the ragged last
    # chunk of R=70 (6 trajectories) one, so lanes never outnumber groups.
    # A chunk's calling thread is one of its lanes, so 4 lanes start 3 threads
    @pytest.mark.parametrize("steps,realizations,pools,helpers",
                             [(4, 64, [2], 0), (4, 32, [], 0),
                              (60, 32, [], 3), (60, 70, [3], 6)],
                             ids=["two-chunks", "one-chunk", "one-chunk-lanes",
                                  "three-chunks-lanes"])
    def test_worker_count_follows_the_chunks(self, monkeypatch, steps, realizations, pools,
                                             helpers):
        made = {"processes": [], "threads": 0}

        class Pool:
            """Records the pool size it is asked for and runs each task
            in-process, in order, so it starts no process."""

            def __init__(self, max_workers):
                made["processes"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        class Thread:
            """Counts the threads started and runs each target in the
            starting thread, so it starts no thread."""

            def __init__(self, target):
                self.target = target

            def start(self):
                made["threads"] += 1
                self.target()

            def join(self):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(threading, "Thread", Thread)
        cfg = config(steps=steps, realizations=realizations)
        result = run_ensemble(cfg, threads=1000)
        assert made == {"processes": pools, "threads": helpers}
        np.testing.assert_array_equal(result.probabilities,
                                      run_ensemble(cfg, threads=1).probabilities)
        assert made == {"processes": pools, "threads": helpers}

    @pytest.mark.parametrize("value", [2.0, "2", True, None])
    def test_non_integer_threads_is_config_error(self, monkeypatch, value):
        made = []

        def refuse(what):
            def fake(*args, **kwargs):
                made.append(what)
                raise AssertionError(f"{what} reached before the argument check")
            return fake

        for module, what in ((concurrent.futures, "ProcessPoolExecutor"), (threading, "Thread"),
                             (ensemble, "zero_windows"), (ensemble, "zeroed_array")):
            monkeypatch.setattr(module, what, refuse(what))
        with pytest.raises(ConfigError, match=f"threads must be an integer, got {value!r}"):
            run_ensemble(config(realizations=4), threads=value)
        assert made == []

    def test_numpy_integer_threads_are_accepted(self):
        cfg = config(realizations=4)
        want = run_ensemble(cfg, threads=1)
        got = run_ensemble(cfg, threads=np.int64(1))
        np.testing.assert_array_equal(got.probabilities, want.probabilities)
        np.testing.assert_array_equal(got.per_trajectory_variances,
                                      want.per_trajectory_variances)


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


class TestWindowVariances:
    """A result's V(n) comes from its windows' marginals; it must equal
    variance_series of its dense grids bit for bit.  At N=70 a dense row
    holds 141 sites, past numpy's 128-element pairwise-sum block, where the
    sum of a compact (unpadded) row would group the additions differently."""

    CFG = config(steps=70, realizations=8, seed=13)

    @staticmethod
    def assert_dense_variances(result):
        assert np.array_equal(result.variances,
                              variance_series(result.probabilities, result.half_width))

    # a group at N=70 is 6 trajectories, so R=8 is one chunk of two groups,
    # which run on two lanes at threads=2
    @pytest.mark.parametrize("threads", [1, 2])
    def test_ensemble(self, threads):
        self.assert_dense_variances(run_ensemble(self.CFG, threads=threads))

    def test_trajectory(self):
        self.assert_dense_variances(run_trajectory(self.CFG, 5))

    @pytest.mark.parametrize("mode", [DisorderMode.NONE, DisorderMode.DYNAMICAL_SPATIAL,
                                      DisorderMode.DYNAMICAL_UNIFORM])
    def test_exact_run(self, mode):
        self.assert_dense_variances(exact_run(config(mode, math.pi / 2, steps=20,
                                                     realizations=1)))

