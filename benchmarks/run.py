"""qwalk2d benchmark: end-to-end CLI runs, or one traced run for per-layer metrics.

    python3 benchmarks/run.py --workload ensemble-n20 --seed 424242 --seconds 30 --trace 0

With --trace 0 it runs the workload's commands in fresh child processes, as
a user would, for --seconds seconds, and reports the medians of setup_s,
run_s, fit_s and peak_rss_mb.  With --trace 1 it makes one traced run in a
child instead and reports the per-layer metrics.  Every operation's outputs
are checked; the last line of standard output is the JSON result, and the
human-readable report goes to standard error.  Nothing here sets BLAS
thread variables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from workloads import (
    DEFAULT_SEED,
    SEED_INDEPENDENT,
    WORKLOADS,
    command_argv,
    fit_argv,
    serial,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"

# the whole benchmark must end within this many seconds
DEADLINE_S = 170.0
# fresh-interpreter imports timed before the operations, after one warm-up,
# and after every operation, so the samples span the whole run
SETUP_SAMPLES = 4
SETUP_SAMPLES_PER_OP = 2
REL_TOL = 1e-9
# absolute floor for entries that are exactly zero, such as V(0)
ABS_TOL = 1e-12
SUM_TOL = 1e-9

END_TO_END = [("run_s", "s"), ("fit_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


class BenchError(Exception):
    """The benchmark itself cannot go on; no result is printed."""


def _wait_for_group(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the killed group is left (pool workers included)."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Child:
    """Runs child.py in a fresh interpreter with the checkout's src on the path."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def run(self, mode: str, spec: dict | None = None) -> dict:
        """Last-line JSON of the child; BenchError if it fails or runs out of time."""
        argv = [sys.executable, str(HERE / "child.py"), mode, str(SRC)]
        if spec is not None:
            argv.append(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        # own session, so a timeout also ends the child's pool workers
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            _wait_for_group(proc.pid)
            raise BenchError(f"{mode} child ran out of time") from None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} child exited with {proc.returncode}: {err.strip()[-2000:]}")
        return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# correctness checks (standard library only: the parent never imports qwalk2d)
# ---------------------------------------------------------------------------

def close(a, b) -> bool:
    """Numbers within REL_TOL relative (ABS_TOL at zero); everything else equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def reference_of(document: dict) -> dict:
    """The parts of result.json that the reference pins."""
    return {"variance_series": document["variance_series"], "fits": document["fits"]}


def check_run(out_dir: Path, reference: dict | None) -> list[str]:
    """Problems with a run's artifacts; reference None checks invariants only."""
    problems = []
    try:
        document = json.loads((out_dir / "result.json").read_text())
        sums: dict[int, list[float]] = {}
        with open(out_dir / "distributions.csv") as handle:
            if handle.readline().strip() != "step,i,j,p":
                problems.append("distributions.csv: bad header")
            for line in handle:
                step, _, _, p = line.split(",")
                sums.setdefault(int(step), []).append(float(p))
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {exc!r}"]
    if sorted(sums) != list(range(len(sums))):
        problems.append("distribution steps are not contiguous from 0")
    for step, values in sums.items():
        total = math.fsum(values)
        if not abs(total - 1.0) <= SUM_TOL:
            problems.append(f"distribution at step {step} sums to {total!r}")
    if len(document.get("variance_series", [])) != len(sums):
        problems.append("variance series and distributions differ in length")
    if reference is not None:
        try:
            same = close(reference_of(document), reference)
        except KeyError:
            same = False
        if not same:
            problems.append("result.json differs from the reference")
    return problems


def check_fit(out_dir: Path) -> list[str]:
    """Problems with fits.json: it must agree with the run's own result.json."""
    try:
        run = json.loads((out_dir / "result.json").read_text())
        fit = json.loads((out_dir / "fits.json").read_text())
        same = (close([e["V"] for e in fit["variance_series"]],
                      [e["V"] for e in run["variance_series"]])
                and close(fit["fits"], run["fits"]))
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable fit artifacts: {exc!r}"]
    return [] if same else ["fits.json disagrees with the run's result.json"]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{what}: {p}" for p in problems]


def execute(child: Child, tally: Tally, commands, seed: int, op_dir: Path,
            references: list | None) -> dict | None:
    """One e2e operation: every command then every fit, in one fresh child.

    Each run and each fit is one attempted operation.  references[i] is the
    expected result of command i, or None to check invariants only.
    """
    dirs = [op_dir / f"cmd-{i}" for i in range(len(commands))]
    spec = {"commands": [{"run": command_argv(c, keys, seed, str(d)), "fit": fit_argv(str(d))}
                         for (c, keys), d in zip(commands, dirs)]}
    try:
        sample = child.run("e2e", spec)
    except BenchError as exc:
        for (c, _), d in zip(commands, dirs):
            tally.record(f"{c} {d.name}", [str(exc)])
            tally.record(f"fit {d.name}", [str(exc)])
        return None
    for i, ((c, _), d) in enumerate(zip(commands, dirs)):
        ref = None if references is None else references[i]
        code, fit_code = sample["run_codes"][i], sample["fit_codes"][i]
        tally.record(f"{c} {d.name}", [f"exit code {code}"] if code else check_run(d, ref))
        tally.record(f"fit {d.name}", [f"exit code {fit_code}"] if fit_code else check_fit(d))
    return sample


def load_references(workload: str, seed: int) -> list | None:
    pinned = json.loads(REFERENCES.read_text())
    key = workload if workload in SEED_INDEPENDENT else f"{workload}/seed={seed}"
    return pinned.get(key)


def serial_references(child: Child, tally: Tally, commands, seed: int,
                      op_dir: Path) -> list | None:
    """Reference results from the serial path, for a seed with no pinned ones."""
    serial_commands = [(c, serial(keys)) for c, keys in commands]
    before = tally.failed
    if execute(child, tally, serial_commands, seed, op_dir, None) is None \
            or tally.failed > before:
        return None
    return [reference_of(json.loads((op_dir / f"cmd-{i}" / "result.json").read_text()))
            for i in range(len(commands))]


def measure(args, child: Child, tally: Tally, work: Path) -> tuple[dict, dict]:
    """End-to-end samples over --seconds seconds; returns (metrics, report)."""
    commands = WORKLOADS[args.workload]
    references = load_references(args.workload, args.seed)
    pinned = references is not None
    if not pinned:
        # a failed serial run is already counted; the runs after it can
        # then only be checked for invariants
        references = serial_references(child, tally, commands, args.seed, work / "reference")

    child.run("import")  # warm-up: bytecode compile and page cache
    first = child.run("import")
    samples = {name: [] for name, _ in END_TO_END}
    samples["setup_s"].append(first["setup_s"])
    for _ in range(SETUP_SAMPLES - 1):
        samples["setup_s"].append(child.run("import")["setup_s"])

    # operations run back to back; the run ends at the operation boundary
    # nearest to --seconds, so a long operation never doubles the window,
    # but never before two operations, so a median has two samples
    start = time.monotonic()
    ops = 0
    last = 0.0
    while ops < 2 or time.monotonic() - start + last / 2 < args.seconds:
        op_start = time.monotonic()
        sample = execute(child, tally, commands, args.seed, work / f"op-{ops}", references)
        shutil.rmtree(work / f"op-{ops}", ignore_errors=True)
        ops += 1
        if sample is not None:
            for name in samples:
                samples[name].append(sample[name])
        for _ in range(SETUP_SAMPLES_PER_OP):
            samples["setup_s"].append(child.run("import")["setup_s"])
        last = time.monotonic() - op_start
    if not samples["run_s"]:
        raise BenchError("no operation returned a measurement")

    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    workers = max(int(keys.get("threads", 1)) for _, keys in commands)
    report = {"samples": samples, "operations": ops, "pinned_reference": pinned,
              "context": {**first["context"], "workers": workers}}
    return metrics, report


def trace(args, child: Child, tally: Tally, work: Path) -> tuple[dict, dict]:
    """One traced run in a child; checks its outputs and the replay."""
    commands = WORKLOADS[args.workload]
    references = load_references(args.workload, args.seed)
    spec = {"workload": args.workload, "seed": args.seed, "out_dir": str(work / "trace"),
            "spans_path": str(OUT / f"spans-{args.workload}-seed{args.seed}.json")}
    result = child.run("trace", spec)
    for i, (c, _) in enumerate(commands):
        untraced, traced = Path(result["untraced_dirs"][i]), Path(result["traced_dirs"][i])
        ref = None if references is None else references[i]
        code = result["untraced_codes"][i]
        tally.record(f"{c} untraced-{i}", [f"exit code {code}"] if code else check_run(untraced, ref))
        try:
            same = all((untraced / f).read_bytes() == (traced / f).read_bytes()
                       for f in ("result.json", "distributions.csv"))
        except OSError:
            same = False
        tally.record(f"{c} traced-{i}", [] if same else ["traced artifacts differ from untraced"])
        tally.record(f"fit traced-{i}", check_fit(traced))
    for k, ok in enumerate(result["replay_ok"]):
        tally.record(f"replay {k}", [] if ok else ["replay differs from the program"])
    metrics = result["metrics"]
    report = {"context": {**result["context"], "workers": result["workers"],
                          "workers_busy": result["workers_busy"]},
              "replays": len(result["replay_ok"]), "spans": spec["spans_path"],
              "pinned_reference": references is not None}
    return metrics, report


def _describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)}"
    tail = stats.tail_percentile(values)
    if tail:
        line += f"; p{tail[0]} = {tail[1]:.6g} {unit} with {tail[2]} beyond"
    return line + f"; min {min(values):.6g}, max {max(values):.6g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring window of an end-to-end run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qwalk2d" / "cli.py").is_file():
        print(f"error: no qwalk2d sources under {SRC}", file=sys.stderr)
        return 2
    child = Child(time.monotonic() + DEADLINE_S)
    tally = Tally()
    work = OUT / f"work-{os.getpid()}"
    try:
        work.mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, report = trace(args, child, tally, work)
        else:
            metrics, report = measure(args, child, tally, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    record = OUT / f"last-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"metrics": metrics, **report}, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", file=sys.stderr)
    print(f"context: {json.dumps(report['context'])}", file=sys.stderr)
    for name, entry in metrics.items():
        if args.trace:
            print(f"{name} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
        else:
            print(_describe(name, report["samples"][name], entry["unit"]), file=sys.stderr)
    print(f"fail_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed of {tally.attempted} attempted)", file=sys.stderr)
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
