"""Monte-Carlo ensemble runner: R independent trajectories, averaged.

A run averages trajectories 0..R-1, every one of the config's
realizations; no run covers part of an ensemble.  Trajectories are seeded
from (master_seed, trajectory_index) only, so the result does not depend on
scheduling.  Reduction walks fixed-size chunks of trajectory indices in
ascending order; the chunk layout depends only on R, never on the worker
count, so a run is bitwise reproducible for any number of workers.

This module alone sets the order of every addition.  A chunk walks its
trajectories in groups, each through one evolve.walk_group generator.
The group width is derived from the step count, never set: as many
trajectories as fit GROUP_BYTES of amplitudes.  Each step's windows are
added into the chunk's per-step sublattice sums, one (n + 1, n + 1) grid
per step n, in trajectory order (_add_windows), and each trajectory's
variance row comes from its windows' marginals, so the width changes no
bit.  A chunk's sums hold sum_n (n + 1)^2 values (2.8 MB at N = 100),
about a twelfth of one dense (N+1, 2N+1, 2N+1) stack.  The run adds them, in chunk order, into one
zeroed buffer of the same layout, and divides that in place: the mean is
a WalkResult's windows, and no stage of a run builds a dense stack.  Run
in-process, the first chunk adds its trajectories straight into that
buffer, which then holds exactly that chunk's sums, and only later chunks
hold sums of their own.  The chunks write their rows into the run's
(R, N+1) variance array.

A run's threads are processes across chunks and threads (lanes) across a
chunk's groups: a process pool, whose module loads only when a run starts
one, and plain threads, joined before their chunk returns.  Each group
counts the steps it has added, and adds its step-n windows only once the
group before it has added step n, so the lane count changes no bit
either, and a waiting group holds only its own state.  A group that
stops, having finished or failed, counts as having added every step, so
it releases the groups after it.
"""

from __future__ import annotations

import concurrent.futures
import numbers
import threading
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .analysis import zeroed_array
from .disorder import DisorderConfig
from .errors import ConfigError, check_unit_total
from .evolve import WalkResult, walk_group, window_variances, zero_windows

# trajectories per reduction chunk; fixed so that the summation order is
# identical no matter how many workers run
CHUNK_SIZE = 32
# amplitude bytes a group of trajectories may hold at its last step; about
# 1 MB keeps a group's step temporaries small: 32 trajectories at N = 20,
# 3 at N = 100 (one group of all 32 at N = 100 ran slower, with a 9%
# higher peak RSS)
GROUP_BYTES = 1 << 20


@dataclass
class EnsembleResult(WalkResult):
    """A WalkResult whose windows are the ensemble averages of trajectories
    0..R-1, plus each trajectory's variance series, one row per trajectory,
    from which variance_stderr comes."""

    per_trajectory_variances: np.ndarray


def _group_width(n_steps: int) -> int:
    """Trajectories stepped as one stack: as many as fit GROUP_BYTES of
    amplitudes at the last step, at least 1 and at most CHUNK_SIZE."""
    per_trajectory = 2 * 16 * (n_steps + 1) ** 2
    return max(1, min(CHUNK_SIZE, GROUP_BYTES // per_trajectory))


def _add_windows(total: np.ndarray, windows: np.ndarray) -> None:
    """Add a group's step-n windows (B, n + 1, n + 1) into total in order,
    overwriting them: one reduce, the sum first (s + w0 is w0 + s); numpy
    would add (1, 1) windows pairwise, so step 0 adds one at a time."""
    if total.size > 1:
        windows[0] += total
        np.add.reduce(windows, axis=0, out=total)
    else:
        for window in windows:
            total += window


def _run_chunk(args, window_sums: list[np.ndarray] | None = None
               ) -> tuple[int, list[np.ndarray], np.ndarray]:
    """Per-step sums of the probability windows and per-trajectory variance
    rows for [start, stop), walked in groups of _group_width by walk_group,
    whose windows _add_windows adds into the sums in trajectory order, so
    no bit depends on the width.  The sums are window_sums, which must be
    zeroed, or new zeroed windows when it is None.

    The groups run on min(lanes, groups) lanes, this thread and a helper
    thread for each other lane, all joined before the chunk returns; they
    take the groups in order.  added[g] counts the steps group g has added,
    and group g adds its step-n windows once added[g - 1] > n, so every
    site gets its additions in trajectory order and no bit depends on the
    lane count either.  With one lane the group before has always
    finished, so no group waits.  This thread walks too because the memory
    its groups free stays with its allocator for the run's later stages:
    walked by helper threads alone, a run's peak RSS rose by about 2 MB at
    N = 100.  A group that stops, by finishing or by any exception,
    BaseException included, counts as having added every step, so a failed
    group releases the groups after it.  No lane takes a group after a
    failure, and the first group to fail, in group order, raises its own
    error in this thread, as a serial run would.
    """
    config, start, stop, lanes = args
    if window_sums is None:
        window_sums = zero_windows(config.steps)
    var_rows = np.empty((stop - start, config.steps + 1))
    width = _group_width(config.steps)
    groups = [(lo, min(lo + width, stop)) for lo in range(start, stop, width)]
    added = [0] * len(groups)
    changed = threading.Condition()  # guards added and the group order
    order = iter(range(len(groups)))
    failed: dict[int, BaseException] = {}

    def set_added(g: int, count: int) -> None:
        with changed:
            added[g] = count
            changed.notify_all()

    def lane():
        while not failed:
            with changed:
                g = next(order, None)
            if g is None:
                return
            lo, hi = groups[g]
            try:
                steps = walk_group(config, lo, hi, var_rows[lo - start:hi - start])
                for n, windows in enumerate(steps):
                    with changed:
                        changed.wait_for(lambda: g == 0 or added[g - 1] > n)
                    _add_windows(window_sums[n], windows)
                    set_added(g, n + 1)
            except BaseException as exc:  # raised again in the chunk's own thread
                failed[g] = exc
            finally:
                set_added(g, config.steps + 1)

    helpers = [threading.Thread(target=lane) for _ in range(min(lanes, len(groups)) - 1)]
    for helper in helpers:
        helper.start()
    lane()
    for helper in helpers:
        helper.join()
    if failed:
        raise failed[min(failed)]
    return start, window_sums, var_rows


def run_ensemble(config: DisorderConfig, threads: int = 1) -> EnsembleResult:
    """Average trajectories 0..R-1.

    Chunks fan out to processes = min(threads, chunks) worker processes;
    one process runs them in-process (the reference path).  Each chunk runs
    its groups on threads // processes lanes (see _run_chunk), so the
    threads a run asks for stay busy when it has fewer chunks than
    threads.  Either way the reduction order is fixed, so the stored
    numbers are identical.  The mean's windows (see zero_windows) and the
    variance rows are allocated first, so a walk too long or an ensemble
    too large to hold fails with a ConfigError before any trajectory runs
    or worker starts.
    """
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral):
        raise ConfigError(f"threads must be an integer, got {threads!r}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    count = config.realizations
    mean = zero_windows(config.steps)
    per_traj_var = zeroed_array((count, config.steps + 1), "variance array",
                                f"trajectories 0..{count - 1}")
    starts = range(0, count, CHUNK_SIZE)
    processes = min(threads, len(starts))
    chunk_args = ((config, a, min(a + CHUNK_SIZE, count), threads // processes) for a in starts)
    if processes == 1:  # the first chunk sums into mean itself
        _sum_chunks(map(_run_chunk, chunk_args, chain([mean], repeat(None))), mean, per_traj_var)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=processes) as pool:
            _sum_chunks(pool.map(_run_chunk, chunk_args), mean, per_traj_var)
    for n, window in enumerate(mean):
        window /= count
        check_unit_total(window.sum(), f"averaged distribution sum at step {n}")
    if count > 1:
        stderr = per_traj_var.std(axis=0, ddof=1) / np.sqrt(count)
    else:
        stderr = np.zeros(config.steps + 1)
    return EnsembleResult(config, mean, window_variances(mean, config.steps), stderr,
                          per_traj_var)


def _sum_chunks(chunk_results, window_sums: list[np.ndarray], per_traj_var: np.ndarray) -> None:
    """Add chunk results into the zeroed window_sums in chunk order, each as
    it arrives, so only the sums and one chunk's sums are held, and write
    each chunk's variance rows into per_traj_var, whose row k is trajectory
    k.  The first chunk's sums are added to zeros, which leaves their bits
    as they are: 0.0 + x is x for every x >= 0.  So a first chunk that
    summed into window_sums itself (run_ensemble in-process) is not added
    again and gives the same bits."""
    row = 0
    for chunk_start, chunk_sums, var_rows in chunk_results:
        assert chunk_start == row, "chunk reduction out of order"
        per_traj_var[row:row + len(var_rows)] = var_rows
        row += len(var_rows)
        if chunk_sums is not window_sums:
            for total, part in zip(window_sums, chunk_sums):
                total += part
