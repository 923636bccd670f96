"""Write references.json: the serial (threads=1) results the benchmark checks against.

    PYTHONPATH=src python3 benchmarks/pin_references.py

Runs every workload command on the serial path for the default and the
held-out seed (the oracle once: its outputs do not depend on the seed) and
stores the variance series and fits of each result.json.  Re-pin only on
purpose, from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil

from qwalk2d import cli

from run import OUT, REFERENCES, reference_of
from workloads import DEFAULT_SEED, HELD_OUT_SEED, SEED_INDEPENDENT, WORKLOADS, command_argv, serial


def main() -> None:
    work = OUT / "pin"
    pinned = {}
    for workload, commands in WORKLOADS.items():
        seeds = [DEFAULT_SEED] if workload in SEED_INDEPENDENT else [DEFAULT_SEED, HELD_OUT_SEED]
        for seed in seeds:
            key = workload if workload in SEED_INDEPENDENT else f"{workload}/seed={seed}"
            entries = []
            for i, (command, keys) in enumerate(commands):
                out_dir = work / key.replace("/", "-") / f"cmd-{i}"
                if cli.main(command_argv(command, serial(keys), seed, str(out_dir))) != 0:
                    raise SystemExit(f"{key} command {i} failed")
                entries.append(reference_of(json.loads((out_dir / "result.json").read_text())))
            pinned[key] = entries
    REFERENCES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
