"""Work done inside one fresh benchmark child process.

    python3 child.py import <src-dir>
    python3 child.py e2e    <src-dir> <spec-json>
    python3 child.py trace  <src-dir> <spec-json>

`import` times `import qwalk2d.cli` and reports the run context.  `e2e`
also runs the workload's commands through `qwalk2d.cli.main` as a user
would, then `fit` on each run's artifacts.  `trace` runs the workload
in-process with spans around each layer (see tracing.py).  The last line
of standard output is one JSON object; an exit code other than 0 means the
program could not be imported from <src-dir>.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

FIT_BATCH_S = 0.25


def _import_cli(src: Path):
    t0 = time.perf_counter()
    from qwalk2d import cli
    import_s = time.perf_counter() - t0
    found = Path(cli.__file__).resolve()
    if src.resolve() not in found.parents:
        sys.exit(f"qwalk2d was imported from {found}, not from {src}")
    return cli, import_s


def _blas_vendor(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def run_context() -> dict:
    """Versions and thread settings as found; nothing here sets them."""
    import numpy as np
    return {
        "numpy": np.__version__,
        "blas": _blas_vendor(np),
        "env": {name: os.environ.get(name) for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or any reaped child (pool workers), in MB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def _call_main(cli, argv: list[str]) -> int:
    """Exit code of one CLI invocation; a traceback counts as code -1."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        print(f"{argv[0]} crashed: {exc!r}", file=sys.stderr)
        return -1


def _timed_fit(cli, argv: list[str]) -> tuple[int, float]:
    """Exit code and mean wall time of `fit`, repeated at least twice and
    for at least FIT_BATCH_S.

    One fit of a small run takes about 10 ms, shorter than the machine's
    load swings, so single fits scatter between two modes; a batch averages
    over them.
    """
    calls, total = 0, 0.0
    while True:
        t0 = time.perf_counter()
        code = _call_main(cli, argv)
        total += time.perf_counter() - t0
        calls += 1
        if code or (calls >= 2 and total >= FIT_BATCH_S):
            return code, total / calls


def e2e(cli, import_s: float, spec: dict) -> dict:
    """Run every command, then fit every run; time each phase."""
    t0 = time.perf_counter()
    run_codes = [_call_main(cli, cmd["run"]) for cmd in spec["commands"]]
    run_s = time.perf_counter() - t0
    rss = peak_rss_mb()
    fits = [_timed_fit(cli, cmd["fit"]) for cmd in spec["commands"]]
    return {"setup_s": import_s, "run_s": run_s, "fit_s": sum(s for _, s in fits),
            "peak_rss_mb": rss, "run_codes": run_codes, "fit_codes": [c for c, _ in fits]}


def main(argv: list[str]) -> None:
    mode, src = argv[0], Path(argv[1])
    cli, import_s = _import_cli(src)
    if mode == "import":
        out = {"setup_s": import_s, "context": run_context()}
    elif mode == "e2e":
        out = e2e(cli, import_s, json.loads(argv[2]))
    elif mode == "trace":
        import tracing
        out = tracing.trace_workload(cli, json.loads(argv[2]))
        out["context"] = run_context()
    else:
        sys.exit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
