"""Traced in-process run of a workload, for the per-layer metrics.

The trace runs each command three ways:

1. untraced, through `qwalk2d.cli.main`, for the reference wall time,
   after one untraced warm-up pass;
2. through the package's public functions in the order `cli` calls them,
   with a span around each call (this is the traced total);
3. as a replay, trajectory by trajectory: `run_trajectory` itself, then the
   same walk rebuilt from `PhaseSampler` and the `state` step functions
   (or, for the oracle, from `exact_step_density`).  The replay must
   reproduce the program's probabilities bit for bit.

Spans are recorded by this file around calls into the package; nothing in
the package is patched.  They are kept in memory and written out at the
end.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from qwalk2d.analysis import (
    Distribution2D,
    axis_cuts,
    fit_localization,
    fit_scaling_exponent,
    variance_series,
)
from qwalk2d.disorder import DisorderMode, PhaseSampler
from qwalk2d.ensemble import CHUNK_SIZE, run_ensemble
from qwalk2d.errors import AnalysisError
from qwalk2d.evolve import exact_run, exact_step_density, initial_density, run_trajectory
from qwalk2d.io import (
    build_result_document,
    manifest_from_pairs,
    read_distribution_csv,
    read_manifest,
    render_heatmap_svg,
    write_distribution_csv,
    write_manifest,
    write_result_json,
    write_variance_csv,
)
from qwalk2d.state import (
    apply_coin,
    apply_dephasing,
    apply_shift_x,
    apply_shift_y,
    initial_state,
)

import stats
from workloads import WORKLOADS, command_argv, master_seed

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("state.apply_dephasing.s", "s"),
    ("state.norm.s", "s"),
    ("state.apply_coin.s", "s"),
    ("state.apply_shift.s", "s"),
    ("state.sites_touched", "count"),
    ("state.bytes_moved", "bytes"),
    ("disorder.sampler_init.s", "s"),
    ("disorder.sampler_init.calls", "count"),
    ("disorder.phases_for_step.s", "s"),
    ("disorder.phases_for_step.calls", "count"),
    ("disorder.phase_values_drawn", "count"),
    ("evolve.run_trajectory.s", "s"),
    ("evolve.run_trajectory.p50_ms", "ms"),
    ("evolve.run_trajectory.tail_ms", "ms"),
    ("evolve.run_trajectory.tail_pct", "%"),
    ("evolve.run_trajectory.samples", "count"),
    ("evolve.prob_stack_mb", "MB"),
    ("evolve.exact_step_density.s", "s"),
    ("evolve.exact_step_density.calls", "count"),
    ("evolve.oracle_dim", "count"),
    ("evolve.oracle_tensor_mb", "MB"),
    ("ensemble.run_ensemble.s", "s"),
    ("ensemble.parallel_efficiency", "ratio"),
    ("ensemble.result_mb_returned", "MB"),
    ("ensemble.trajectories_failed", "count"),
    ("io.write_distribution_csv.s", "s"),
    ("io.read_distribution_csv.s", "s"),
    ("io.render_heatmap_svg.s", "s"),
    ("io.write_result_json.s", "s"),
    ("io.artifact_bytes", "bytes"),
    ("io.csv_rows", "count"),
    ("analysis.variance_series.s", "s"),
    ("analysis.fits.s", "s"),
    ("cli.self_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Spans (name, parent index, start, end) and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span called name."""
        record = [name, self._open[-1] if self._open else -1, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, _, start, end in self.spans if span_name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus what their children cover."""
        covered = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return sum(end - start - covered[i]
                   for i, (span_name, _, start, end) in enumerate(self.spans)
                   if span_name == name)

    def write(self, path: Path) -> None:
        keys = ("name", "parent", "start", "end")
        path.write_text(json.dumps({"spans": [dict(zip(keys, s)) for s in self.spans],
                                    "counts": self.counts}))


def _fits(tr: Tracer, variances, final_dist, manifest):
    """The scaling and localization fits, as `qwalk2d run` and `fit` compute them."""
    def compute():
        n_lo, n_hi, d_lo, d_hi = manifest.resolved_fit_windows()
        try:
            scaling = fit_scaling_exponent(variances, n_lo, n_hi)
        except AnalysisError as exc:
            scaling = {"error": str(exc)}
        cuts = axis_cuts(final_dist)
        loc = {}
        for name, profile in (("x", cuts.along_x), ("y", cuts.along_y)):
            try:
                loc[name] = fit_localization(cuts.coords, profile, d_lo, d_hi)
            except AnalysisError as exc:
                loc[name] = {"error": str(exc)}
        return scaling, loc["x"], loc["y"]
    return tr.call("analysis.fits", compute)


def traced_run(tr: Tracer, command: str, keys: dict, seed: int, out_dir: Path):
    """`qwalk2d run`/`oracle` through the public functions, one span per call.

    Returns the ensemble or exact result for the replay to compare against.
    """
    def body():
        pairs = {**keys, "seed": str(master_seed(seed)), "out_dir": str(out_dir)}
        if command == "oracle":
            pairs["engine"] = "exact"
        manifest = manifest_from_pairs(pairs)
        config = manifest.disorder_config()
        if manifest.engine == "trajectory":
            threads = manifest.threads if manifest.threads is not None else (os.cpu_count() or 1)
            raw = tr.call("ensemble.run_ensemble", run_ensemble, config, threads)
            dists, variances, stderrs = raw.distributions(), raw.variances, raw.variance_stderr
        else:
            raw = tr.call("evolve.exact_run", exact_run, config)
            dists = [Distribution2D(p.clip(min=0.0), raw.half_width, n)
                     for n, p in enumerate(raw.probabilities)]
            variances, stderrs = raw.variances, None
        scaling, loc_x, loc_y = _fits(tr, variances, dists[-1], manifest)
        document = build_result_document(engine=manifest.engine, config=config,
                                         variances=variances, stderrs=stderrs,
                                         scaling=scaling, localization_x=loc_x,
                                         localization_y=loc_y)
        out_dir.mkdir(parents=True, exist_ok=True)
        tr.call("io.write_manifest", write_manifest, manifest, out_dir / "manifest.cfg")
        tr.call("io.write_distribution_csv", write_distribution_csv, dists,
                out_dir / "distributions.csv")
        tr.call("io.write_variance_csv", write_variance_csv, variances, stderrs,
                out_dir / "variance.csv")
        tr.call("io.write_result_json", write_result_json, document, out_dir / "result.json")
        tr.call("io.render_heatmap_svg", render_heatmap_svg, dists[-1], out_dir / "heatmap.svg")
        return config, manifest, raw
    return tr.call("cli.run", body)


def traced_fit(tr: Tracer, out_dir: Path) -> None:
    """`qwalk2d fit` with --manifest on a run's artifacts, one span per call."""
    def body():
        dists = tr.call("io.read_distribution_csv", read_distribution_csv,
                        out_dir / "distributions.csv")
        manifest = read_manifest(out_dir / "manifest.cfg")
        config = manifest.disorder_config()
        manifest.steps = len(dists) - 1
        stack = np.stack([d.probs for d in dists])
        variances = tr.call("analysis.variance_series", variance_series, stack,
                            dists[0].half_width)
        scaling, loc_x, loc_y = _fits(tr, variances, dists[-1], manifest)
        document = build_result_document(engine="refit", config=config, variances=variances,
                                         stderrs=None, scaling=scaling,
                                         localization_x=loc_x, localization_y=loc_y)
        tr.call("io.write_result_json", write_result_json, document, out_dir / "fits.json")
    tr.call("cli.fit", body)


def _site_probs(amps: np.ndarray) -> np.ndarray:
    return np.abs(amps[..., 0]) ** 2 + np.abs(amps[..., 1]) ** 2


def replay_trajectory(tr: Tracer, config, trajectory_index: int) -> np.ndarray:
    """run_trajectory's probability stack, rebuilt from the disorder and state calls.

    Counts site updates and the bytes each call reads and writes (computed
    from array sizes: the amplitude array in and out, the phase grid, the
    amplitude array once for the norm; temporaries and caches ignored).
    """
    sampler = tr.call("disorder.sampler_init", PhaseSampler, config, trajectory_index)
    state = initial_state(config.steps)
    probs = np.empty((config.steps + 1, state.grid_size, state.grid_size))
    probs[0] = _site_probs(state.amps)
    drawn = None
    for n in range(1, config.steps + 1):
        phases = tr.call("disorder.phases_for_step", sampler.phases_for_step, n,
                         state.half_width)
        if config.mode is not DisorderMode.NONE and config.zeta != 0.0 \
                and phases.values is not drawn:
            drawn = phases.values
            tr.count("disorder.phase_values_drawn", drawn.size)
        out = tr.call("state.apply_coin", apply_coin, state)
        out = tr.call("state.apply_shift", apply_shift_x, out)
        out = tr.call("state.apply_coin", apply_coin, out)
        out = tr.call("state.apply_shift", apply_shift_y, out)
        out = tr.call("state.apply_dephasing", apply_dephasing, out, phases)
        out.step_count = state.step_count + 1
        state = out
        tr.call("state.norm", state.norm)
        probs[n] = _site_probs(state.amps)
        tr.count("state.sites_touched", 5 * state.grid_size ** 2)
        tr.count("state.bytes_moved", 11 * state.amps.nbytes
                 + np.asarray(phases.values).nbytes)
    return probs


def _replay_trajectories(tr: Tracer, config) -> tuple[list[bool], int]:
    """Serial run_trajectory plus replay for every index; (replay matched, failed)."""
    matched, failed = [], 0
    for k in range(config.realizations):
        try:
            traj = tr.call("evolve.run_trajectory", run_trajectory, config, k)
        except Exception:  # counted, as the ensemble would report it
            failed += 1
            matched.append(False)
            continue
        tr.call("analysis.variance_series", variance_series, traj.probabilities,
                traj.half_width)
        tr.counts["evolve.prob_stack_bytes"] = traj.probabilities.nbytes
        matched.append(np.array_equal(replay_trajectory(tr, config, k), traj.probabilities))
    return matched, failed


def replay_oracle(tr: Tracer, config) -> np.ndarray:
    """exact_run's probability stack, rebuilt one exact_step_density call at a time."""
    dstate = initial_density(config.steps)
    probs = [dstate.site_probabilities()]
    for _ in range(config.steps):
        dstate = tr.call("evolve.exact_step_density", exact_step_density, dstate, config)
        probs.append(dstate.site_probabilities())
    tr.counts["evolve.oracle_dim"] = dstate.rho.shape[0]
    if config.mode is DisorderMode.DYNAMICAL_SPATIAL:
        # the dense damping tensor has one float64 per density-matrix element
        tr.counts["evolve.oracle_tensor_bytes"] = dstate.rho.size * 8
    return np.stack(probs)


def layer_metrics(tr: Tracer, workers: int, configs, untraced_s: float,
                  traced_s: float, trajectories_failed: int,
                  out_dirs: list[Path]) -> dict[str, dict]:
    """Every PER_LAYER metric as {"value", "unit"}; 0 for a layer that never ran."""
    counts = tr.counts
    traj_s = tr.durations("evolve.run_trajectory")
    tail = stats.tail_percentile(traj_s)
    ensemble_s = tr.total("ensemble.run_ensemble")
    returned = 0
    for config in configs:
        if workers > 1:
            chunks = -(-config.realizations // CHUNK_SIZE)
            size = 2 * config.steps + 1
            returned += (chunks * (config.steps + 1) * size * size * 8
                         + config.realizations * (config.steps + 1) * 8)
    if workers == 1:
        efficiency = 1.0 if traj_s else 0.0
    else:
        efficiency = sum(traj_s) / (workers * ensemble_s)
    artifacts = [f for d in out_dirs for f in d.iterdir()]
    csv_rows = sum((d / "distributions.csv").read_text().count("\n") - 1 for d in out_dirs)
    values = {
        "state.apply_dephasing.s": tr.total("state.apply_dephasing"),
        "state.norm.s": tr.total("state.norm"),
        "state.apply_coin.s": tr.total("state.apply_coin"),
        "state.apply_shift.s": tr.total("state.apply_shift"),
        "state.sites_touched": counts["state.sites_touched"],
        "state.bytes_moved": counts["state.bytes_moved"],
        "disorder.sampler_init.s": tr.total("disorder.sampler_init"),
        "disorder.sampler_init.calls": len(tr.durations("disorder.sampler_init")),
        "disorder.phases_for_step.s": tr.total("disorder.phases_for_step"),
        "disorder.phases_for_step.calls": len(tr.durations("disorder.phases_for_step")),
        "disorder.phase_values_drawn": counts["disorder.phase_values_drawn"],
        "evolve.run_trajectory.s": sum(traj_s),
        "evolve.run_trajectory.p50_ms": 1e3 * statistics.median(traj_s) if traj_s else 0.0,
        "evolve.run_trajectory.tail_ms": 1e3 * tail[1] if tail else 0.0,
        "evolve.run_trajectory.tail_pct": tail[0] if tail else 0,
        "evolve.run_trajectory.samples": len(traj_s),
        "evolve.prob_stack_mb": counts["evolve.prob_stack_bytes"] / 1e6,
        "evolve.exact_step_density.s": tr.total("evolve.exact_step_density"),
        "evolve.exact_step_density.calls": len(tr.durations("evolve.exact_step_density")),
        "evolve.oracle_dim": counts["evolve.oracle_dim"],
        "evolve.oracle_tensor_mb": counts["evolve.oracle_tensor_bytes"] / 1e6,
        "ensemble.run_ensemble.s": ensemble_s,
        "ensemble.parallel_efficiency": efficiency,
        "ensemble.result_mb_returned": returned / 1e6,
        "ensemble.trajectories_failed": trajectories_failed,
        "io.write_distribution_csv.s": tr.total("io.write_distribution_csv"),
        "io.read_distribution_csv.s": tr.total("io.read_distribution_csv"),
        "io.render_heatmap_svg.s": tr.total("io.render_heatmap_svg"),
        "io.write_result_json.s": tr.total("io.write_result_json"),
        "io.artifact_bytes": sum(f.stat().st_size for f in artifacts),
        "io.csv_rows": csv_rows,
        "analysis.variance_series.s": tr.total("analysis.variance_series"),
        "analysis.fits.s": tr.total("analysis.fits"),
        "cli.self_s": tr.self_time("cli.run") + tr.self_time("cli.fit"),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}


def trace_workload(cli, spec: dict) -> dict:
    """Untraced run, traced run, traced fit and replay of one workload."""
    commands = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    base = Path(spec["out_dir"])
    untraced_dirs = [base / f"untraced-{i}" for i in range(len(commands))]
    traced_dirs = [base / f"traced-{i}" for i in range(len(commands))]

    def untraced():
        return [cli.main(command_argv(command, keys, seed, str(d)))
                for (command, keys), d in zip(commands, untraced_dirs)]

    untraced()  # warm-up, so first-call costs fall on neither timed pass
    t0 = time.perf_counter()
    codes = untraced()
    untraced_s = time.perf_counter() - t0

    tr = Tracer()
    t0 = time.perf_counter()
    runs = [traced_run(tr, command, keys, seed, d)
            for (command, keys), d in zip(commands, traced_dirs)]
    traced_s = time.perf_counter() - t0
    for d in traced_dirs:
        traced_fit(tr, d)

    replay_ok, failed, workers = [], 0, 1
    for config, manifest, raw in runs:
        if manifest.engine == "trajectory":
            workers = manifest.threads if manifest.threads is not None else (os.cpu_count() or 1)
            matched, f = _replay_trajectories(tr, config)
            replay_ok, failed = replay_ok + matched, failed + f
        else:
            replay_ok.append(np.array_equal(replay_oracle(tr, config), raw.probabilities))
    tr.write(Path(spec["spans_path"]))

    configs = [config for config, manifest, _ in runs if manifest.engine == "trajectory"]
    metrics = layer_metrics(tr, workers, configs, untraced_s, traced_s, failed, traced_dirs)
    chunks = max((-(-c.realizations // CHUNK_SIZE) for c in configs), default=1)
    return {"metrics": metrics, "untraced_codes": codes, "workers": workers,
            "workers_busy": min(workers, chunks),
            "untraced_dirs": [str(d) for d in untraced_dirs],
            "traced_dirs": [str(d) for d in traced_dirs], "replay_ok": replay_ok}
