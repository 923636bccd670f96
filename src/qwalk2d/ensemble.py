"""Monte-Carlo ensemble runner: R independent trajectories, averaged.

Trajectories are seeded from (master_seed, trajectory_index) only, so the
result does not depend on scheduling.  Reduction walks fixed-size chunks of
trajectory indices in ascending order; the chunk layout depends only on the
index range, never on the worker count, so a run is bitwise reproducible
for any number of workers.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analysis import Distribution2D, variance_series
from .disorder import DisorderConfig
from .errors import ConfigError, TrajectoryFailure, check_unit_total
from .evolve import run_trajectory

# trajectories per reduction chunk; fixed so that the summation order is
# identical no matter how many workers run
CHUNK_SIZE = 32


@dataclass
class EnsembleResult:
    """Averaged distributions and variance series of a trajectory ensemble.

    mean_probabilities[n] is the ensemble-averaged (L, L) site grid after n
    steps; variances[n] is the variance of that averaged distribution (the
    figure-of-merit series), and variance_stderr[n] the standard error
    estimated from the per-trajectory variance spread (a diagnostic).
    """

    config: DisorderConfig
    traj_ranges: list[tuple[int, int]]
    half_width: int
    mean_probabilities: np.ndarray
    variances: np.ndarray
    variance_stderr: np.ndarray
    per_trajectory_variances: np.ndarray
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def trajectory_count(self) -> int:
        return sum(stop - start for start, stop in self.traj_ranges)

    def distribution_at(self, n: int) -> Distribution2D:
        return Distribution2D(self.mean_probabilities[n], self.half_width, n)

    def distributions(self) -> list[Distribution2D]:
        return [self.distribution_at(n) for n in range(len(self.mean_probabilities))]


def _run_chunk(args) -> tuple[int, np.ndarray, np.ndarray]:
    """Sum of probability stacks and per-trajectory variance rows for [start, stop)."""
    config, start, stop = args
    prob_sum = None
    var_rows = np.empty((stop - start, config.steps + 1))
    for k in range(start, stop):
        try:
            traj = run_trajectory(config, k)
        except Exception as exc:
            raise TrajectoryFailure(f"trajectory {k} failed: {exc}") from exc
        if prob_sum is None:
            prob_sum = traj.probabilities.copy()
        else:
            prob_sum += traj.probabilities
        var_rows[k - start] = variance_series(traj.probabilities, traj.half_width)
    return start, prob_sum, var_rows


def run_ensemble(config: DisorderConfig, threads: int = 1,
                 traj_start: int = 0, traj_stop: int | None = None) -> EnsembleResult:
    """Average trajectories traj_start..traj_stop-1 (default 0..R-1).

    threads = 1 runs serially in-process (the reference path); larger
    values fan chunks out to worker processes.  Either way the reduction
    order is fixed, so the stored numbers are identical.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    stop = config.realizations if traj_stop is None else traj_stop
    if not 0 <= traj_start < stop:
        raise ConfigError(f"empty or negative trajectory range [{traj_start}, {stop})")
    if stop > config.realizations:
        raise ConfigError(
            f"trajectory range [{traj_start}, {stop}) exceeds realizations={config.realizations}"
        )
    t0 = time.perf_counter()
    chunk_args = [(config, a, min(a + CHUNK_SIZE, stop))
                  for a in range(traj_start, stop, CHUNK_SIZE)]
    if threads == 1:
        chunk_results = [_run_chunk(args) for args in chunk_args]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk_results = list(pool.map(_run_chunk, chunk_args))
    prob_sum = None
    var_blocks = []
    expected_start = traj_start
    for start, chunk_sum, var_rows in chunk_results:
        assert start == expected_start, "chunk reduction out of order"
        expected_start += len(var_rows)
        if prob_sum is None:
            prob_sum = chunk_sum
        else:
            prob_sum += chunk_sum
        var_blocks.append(var_rows)
    count = stop - traj_start
    per_traj_var = np.concatenate(var_blocks, axis=0)
    result = _finalize(config, [(traj_start, stop)], prob_sum / count, per_traj_var)
    result.elapsed_seconds = time.perf_counter() - t0
    return result


def _finalize(config: DisorderConfig, ranges: list[tuple[int, int]],
              mean_probs: np.ndarray, per_traj_var: np.ndarray) -> EnsembleResult:
    half_width = config.steps
    count = per_traj_var.shape[0]
    for n, total in enumerate(mean_probs.sum(axis=(1, 2))):
        check_unit_total(total, f"averaged distribution sum at step {n}")
    variances = variance_series(mean_probs, half_width)
    if count > 1:
        stderr = per_traj_var.std(axis=0, ddof=1) / np.sqrt(count)
    else:
        stderr = np.zeros(per_traj_var.shape[1])
    return EnsembleResult(
        config=config,
        traj_ranges=ranges,
        half_width=half_width,
        mean_probabilities=mean_probs,
        variances=variances,
        variance_stderr=stderr,
        per_trajectory_variances=per_traj_var,
    )


def merge_results(partials: list[EnsembleResult]) -> EnsembleResult:
    """Combine partial ensembles over disjoint trajectory-index ranges.

    Partials must share an identical config; they are merged in ascending
    index order regardless of list order, so the operation is associative
    and deterministic.
    """
    if not partials:
        raise ConfigError("nothing to merge")
    config = partials[0].config
    for part in partials[1:]:
        if part.config != config:
            raise ConfigError("cannot merge ensembles with different configs")
    parts = sorted(partials, key=lambda p: p.traj_ranges[0][0])
    ranges: list[tuple[int, int]] = []
    for part in parts:
        for start, stop in part.traj_ranges:
            if ranges and start < ranges[-1][1]:
                raise ConfigError(
                    f"overlapping trajectory ranges: [{start}, {stop}) after {ranges[-1]}"
                )
            if ranges and start == ranges[-1][1]:
                ranges[-1] = (ranges[-1][0], stop)
            else:
                ranges.append((start, stop))
    total = sum(p.trajectory_count for p in parts)
    mean_probs = sum(p.trajectory_count * p.mean_probabilities for p in parts) / total
    per_traj_var = np.concatenate([p.per_trajectory_variances for p in parts], axis=0)
    merged = _finalize(config, ranges, mean_probs, per_traj_var)
    merged.elapsed_seconds = sum(p.elapsed_seconds for p in parts)
    return merged
