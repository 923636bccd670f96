"""Tests of the benchmark itself: metric names, tail percentiles, checks, replay.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import math
import re
import time

import numpy as np
import pytest

import run
import stats
import tracing
from qwalk2d.disorder import DisorderConfig, DisorderMode
from qwalk2d.evolve import exact_run, run_trajectory
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_valid_and_unique():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(e["unit"]) for e in SPEC["end_to_end"] + SPEC["per_layer"])


def test_declared_metrics_are_the_ones_reported():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("n, pct, rank", [(500, 98, 490), (32, 68, 22), (11, 9, 1)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, rank):
    samples = [float(v) for v in reversed(range(n))]
    q, value, beyond = stats.tail_percentile(samples)
    assert (q, value, beyond) == (pct, float(rank - 1), 10)
    # one percentile higher would leave fewer than ten beyond
    assert n - math.ceil((q + 1) * n / 100) < 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert stats.tail_percentile([1.0] * 10) is None


def test_wrong_reference_counts_as_failed_operation(tmp_path):
    commands = [("run", {"mode": "dynamical-spatial", "zeta": "pi", "steps": "4",
                         "realizations": "3", "threads": "1"})]
    child = run.Child(time.monotonic() + 60)
    tally = run.Tally()
    references = run.serial_references(child, tally, commands, 5, tmp_path / "ref")
    assert references is not None and (tally.attempted, tally.failed) == (2, 0)

    run.execute(child, tally, commands, 5, tmp_path / "right", references)
    assert (tally.attempted, tally.failed) == (4, 0)

    wrong = json.loads(json.dumps(references))
    wrong[0]["variance_series"][2]["V"] *= 1 + 1e-6
    run.execute(child, tally, commands, 5, tmp_path / "wrong", wrong)
    assert (tally.attempted, tally.failed) == (6, 1)
    assert "differs from the reference" in tally.failures[0]


@pytest.mark.parametrize("mode", [DisorderMode.DYNAMICAL_SPATIAL, DisorderMode.STATIC_SPATIAL,
                                  DisorderMode.DYNAMICAL_UNIFORM, DisorderMode.NONE])
def test_replay_reproduces_run_trajectory_exactly(mode):
    config = DisorderConfig(mode=mode, zeta=math.pi, steps=6, realizations=2, master_seed=9)
    tr = tracing.Tracer()
    replays = [tracing.replay_trajectory(tr, config, k) for k in range(2)]
    for k, replay in enumerate(replays):
        assert np.array_equal(replay, run_trajectory(config, k).probabilities)
    if mode is not DisorderMode.NONE:
        assert not np.array_equal(replays[0], replays[1])
    assert len(tr.durations("state.apply_coin")) == 2 * 2 * 6
    assert tr.counts["state.sites_touched"] == 2 * 6 * 5 * 13 ** 2


def test_oracle_replay_reproduces_exact_run():
    config = DisorderConfig(mode=DisorderMode.DYNAMICAL_SPATIAL, zeta=math.pi / 2, steps=3,
                            realizations=1, master_seed=1)
    replay = tracing.replay_oracle(tracing.Tracer(), config)
    assert np.array_equal(replay, exact_run(config).probabilities)


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.call("outer", lambda: [tr.call("inner", time.sleep, 0.02) for _ in range(2)])
    outer = tr.total("outer")
    assert tr.self_time("outer") == pytest.approx(outer - tr.total("inner"))
    assert tr.total("inner") >= 0.04 and tr.self_time("inner") == tr.total("inner")
