"""Monte-Carlo ensemble runner: R independent trajectories, averaged.

Trajectories are seeded from (master_seed, trajectory_index) only, so the
result does not depend on scheduling.  Reduction walks fixed-size chunks of
trajectory indices in ascending order; the chunk layout depends only on the
index range, never on the worker count, so a run is bitwise reproducible
for any number of workers.

A chunk steps its trajectories in groups, each as one stack (see
evolve.trajectory_windows).  The group width is derived from the step
count, never set: as many trajectories as fit GROUP_BYTES of amplitudes.
Each step's windows are added into the chunk's probability sum in
trajectory order as they come, and each trajectory's variance row comes
from the x and y marginals of its windows, so no per-trajectory
(N+1, 2N+1, 2N+1) stack exists, and the width changes no bit.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analysis import Distribution2D, marginal_variances, variance_series
from .disorder import DisorderConfig
from .errors import ConfigError, check_unit_total
from .evolve import sublattice_sites, trajectory_windows

# trajectories per reduction chunk; fixed so that the summation order is
# identical no matter how many workers run
CHUNK_SIZE = 32
# amplitude bytes a group of trajectories may hold at its last step; about
# 1 MB keeps a group's step temporaries small: 32 trajectories at N = 20,
# 3 at N = 100 (one group of all 32 at N = 100 ran slower, with a 9%
# higher peak RSS)
GROUP_BYTES = 1 << 20


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

    def distributions(self) -> list[Distribution2D]:
        return [Distribution2D(probs, self.half_width, n)
                for n, probs in enumerate(self.mean_probabilities)]


def _group_width(n_steps: int) -> int:
    """Trajectories stepped as one stack: as many as fit GROUP_BYTES of
    amplitudes at the last step, at least 1 and at most CHUNK_SIZE."""
    per_trajectory = 2 * 16 * (n_steps + 1) ** 2
    return max(1, min(CHUNK_SIZE, GROUP_BYTES // per_trajectory))


def _run_chunk(args) -> tuple[int, np.ndarray, np.ndarray]:
    """Sum of probability stacks and per-trajectory variance rows for [start, stop).

    Trajectories run in groups of _group_width; each step's windows are
    added into prob_sum in trajectory order, so the sum is the same for
    any group width.  The variance rows come from each trajectory's x and y
    marginals, built as variance_series builds them from a full stack: a
    row sum runs over the whole zero-padded grid row, since numpy's
    pairwise sum groups a shorter row differently, while a column sum adds
    rows in order and may skip the zeros.
    """
    config, start, stop = args
    n_steps = config.steps
    size = 2 * n_steps + 1
    prob_sum = np.zeros((n_steps + 1, size, size))
    var_rows = np.empty((stop - start, n_steps + 1))
    width = _group_width(n_steps)
    for lo in range(start, stop, width):
        hi = min(lo + width, stop)
        px = np.zeros((hi - lo, n_steps + 1, size))
        py = np.zeros((hi - lo, n_steps + 1, size))
        for n, windows in trajectory_windows(config, lo, hi):
            sites = sublattice_sites(n, size)
            total = prob_sum[n, sites, sites]
            for window in windows:
                total += window
            rows = np.zeros(windows.shape[:2] + (size,))
            rows[..., sites] = windows
            px[:, n, sites] = rows.sum(axis=2)
            py[:, n, sites] = windows.sum(axis=1)
        for b in range(hi - lo):
            var_rows[lo - start + b] = marginal_variances(px[b], py[b], n_steps)
    return start, prob_sum, var_rows


def run_ensemble(config: DisorderConfig, threads: int = 1,
                 traj_start: int = 0, traj_stop: int | None = None) -> EnsembleResult:
    """Average trajectories traj_start..traj_stop-1 (default 0..R-1).

    Chunks fan out to min(threads, chunks) worker processes; one worker
    runs serially in-process (the reference path).  Either way the
    reduction order is fixed, so the stored numbers are identical.
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
    workers = min(threads, len(chunk_args))
    if workers == 1:
        prob_sum, per_traj_var = _sum_chunks(map(_run_chunk, chunk_args), traj_start)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            prob_sum, per_traj_var = _sum_chunks(pool.map(_run_chunk, chunk_args), traj_start)
    count = stop - traj_start
    result = _finalize(config, [(traj_start, stop)], prob_sum / count, per_traj_var)
    result.elapsed_seconds = time.perf_counter() - t0
    return result


def _sum_chunks(chunk_results, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Add up chunk results in chunk order, each as it arrives, so only the
    running sum and one chunk's sum are held; returns the probability sum
    and the per-trajectory variance rows from trajectory start on."""
    prob_sum = None
    var_blocks = []
    for chunk_start, chunk_sum, var_rows in chunk_results:
        assert chunk_start == start, "chunk reduction out of order"
        start += len(var_rows)
        if prob_sum is None:
            prob_sum = chunk_sum
        else:
            prob_sum += chunk_sum
        var_blocks.append(var_rows)
    return prob_sum, np.concatenate(var_blocks, axis=0)


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
    index order regardless of list order, so the result does not depend on
    the list order.  The merged means match a single run over the same
    trajectories within 1e-12, but not bit for bit: summing partial totals
    groups the additions differently from one run's chunk order (up to
    3.6e-15 apart at R=128, N=8).
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
