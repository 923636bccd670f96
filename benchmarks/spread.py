"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 benchmarks/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs the benchmark command once per seed (first-seed, first-seed + 1, ...)
on each workload, one run at a time, then prints each metric's median and
its interquartile range as a share of the median, with the metric's bound.
A spread of at most a third of the bound is marked steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    steady = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: failed\n{proc.stderr}", file=sys.stderr)
                return 1
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            ok = spread <= metric["bound"] / 3
            steady &= ok or metric["name"] == "setup_s"
            print(f"{workload:16s} {metric['name']:12s} median {q2:.6g} {metric['unit']:3s} "
                  f"spread {spread:.4f} bound {metric['bound']} {'steady' if ok else 'NOT STEADY'}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
