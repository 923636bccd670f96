import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import qwalk2d
from qwalk2d import (
    DisorderConfig,
    DisorderMode,
    Distribution2D,
    InvariantViolationError,
    exact_run,
    run_ensemble,
)
from qwalk2d.cli import main
from qwalk2d.errors import ConfigError
from qwalk2d.io import (
    RunManifest,
    _checked_columns,
    _parsed_columns,
    build_result_document,
    manifest_from_pairs,
    manifest_to_text,
    parse_manifest_text,
    parse_zeta,
    read_distribution_csv,
    read_manifest,
    _ramp_colors,
    render_heatmap_svg,
    write_distribution_csv,
    write_manifest,
    write_result_json,
    write_window_csv,
)
from reference import read_distribution_csv as reference_read_distribution_csv
from reference import ramp_color, ref_probs, ref_run, ref_variance

FIRST_STEP = {(-1, -1): 0.25, (-1, 1): 0.25, (1, -1): 0.25, (1, 1): 0.25}


def make_dist(entries, half_width, step=0):
    size = 2 * half_width + 1
    probs = np.zeros((size, size))
    for (i, j), p in entries.items():
        probs[i + half_width, j + half_width] = p
    return Distribution2D(probs, half_width, step)


class TestZetaParsing:
    @pytest.mark.parametrize("text,expected", [
        ("0.25", 0.25),
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("0.5pi", math.pi / 2),
        ("2pi/3", 2 * math.pi / 3),
        ("PI", math.pi),
    ])
    def test_forms(self, text, expected):
        assert parse_zeta(text) == pytest.approx(expected, abs=1e-15)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_zeta("two pies")


class TestManifest:
    def test_round_trip_is_lossless(self):
        manifest = RunManifest(mode="static-spatial", zeta=0.3141592653589793,
                               steps=17, realizations=321, seed=987654321,
                               engine="trajectory", threads=3, out_dir="some/dir",
                               fit_n_lo=4, fit_n_hi=16, fit_d_lo=1, fit_d_hi=9)
        text = manifest_to_text(manifest)
        again = manifest_from_pairs(parse_manifest_text(text))
        assert again == manifest
        assert manifest_to_text(again) == text

    def test_defaults_round_trip(self):
        manifest = RunManifest(mode="none", seed=1)
        again = manifest_from_pairs(parse_manifest_text(manifest_to_text(manifest)))
        assert again == manifest

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nmode = none   # trailing\nseed = 5\nzeta = pi/2\n"
        manifest = manifest_from_pairs(parse_manifest_text(text))
        assert manifest.mode == "none"
        assert manifest.seed == 5
        assert manifest.zeta == pytest.approx(math.pi / 2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_manifest_text("mystery = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            manifest_from_pairs({"steps": "twenty"})

    def test_out_dir_with_inner_spaces_round_trips(self, tmp_path):
        manifest = RunManifest(mode="none", seed=1, out_dir="runs/first try  2")
        path = tmp_path / "manifest.cfg"
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest

    def test_mode_and_seed_required_for_config(self):
        with pytest.raises(ConfigError, match="mode"):
            RunManifest(seed=1).disorder_config()
        with pytest.raises(ConfigError, match="seed"):
            RunManifest(mode="none").disorder_config()


class TestDistributionCsv:
    def test_first_step_snapshot_has_exactly_four_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        write_distribution_csv([make_dist(FIRST_STEP, 1, step=1)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,i,j,p"
        assert len(lines) == 5
        assert all(line.endswith(",0.25") for line in lines[1:])

    def test_zero_sites_omitted_and_round_trip(self, tmp_path):
        dists = [make_dist({(0, 0): 1.0}, 2, step=0),
                 make_dist(FIRST_STEP, 2, step=1)]
        path = tmp_path / "d.csv"
        write_distribution_csv(dists, path)
        assert len(path.read_text().splitlines()) == 1 + 1 + 4
        back = read_distribution_csv(path)
        assert len(back) == 2
        for want, got in zip(dists, back):
            assert got.step == want.step
            # the reader sizes the grid to the last step, here half width 1
            np.testing.assert_array_equal(np.pad(got.probs, 2 - got.half_width), want.probs)

    def test_integer_grid_written_as_floats(self, tmp_path):
        # p is the repr of each value as a Python float, whatever the grid's dtype
        probs = np.zeros((3, 3), dtype=np.int64)
        probs[1, 1] = 1
        write_distribution_csv([Distribution2D(probs, 1, 0)], tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_text() == "step,i,j,p\n0,0,0,1.0\n"

    def test_generator_writes_the_same_bytes_as_the_list(self, tmp_path):
        cfg = DisorderConfig(DisorderMode.DYNAMICAL_SPATIAL, math.pi, steps=4,
                             realizations=3, master_seed=7)
        dists = run_ensemble(cfg).distributions()
        write_distribution_csv(dists, tmp_path / "list.csv")
        write_distribution_csv((d for d in dists), tmp_path / "gen.csv")
        assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()
        assert len(read_distribution_csv(tmp_path / "gen.csv")) == 5

    @pytest.mark.parametrize("engine,mode", [
        ("trajectory", mode) for mode in DisorderMode] + [
        ("exact", DisorderMode.NONE), ("exact", DisorderMode.DYNAMICAL_SPATIAL)])
    def test_windows_write_the_bytes_of_their_dense_grids(self, tmp_path, engine, mode):
        cfg = DisorderConfig(mode, math.pi / 2, steps=9, realizations=5, master_seed=11)
        result = run_ensemble(cfg) if engine == "trajectory" else exact_run(cfg)
        write_window_csv(result.windows, tmp_path / "windows.csv")
        write_distribution_csv(result.distributions(), tmp_path / "dense.csv")
        assert (tmp_path / "windows.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()

    def test_unnormalized_window_writes_no_file(self, tmp_path):
        windows = [np.ones((1, 1)), np.full((2, 2), 0.25), np.full((3, 3), 0.1)]
        with pytest.raises(InvariantViolationError, match="distribution sum at step 2"):
            write_window_csv(windows, tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()

    def test_generator_with_unnormalized_last_step_writes_no_file(self, tmp_path):
        dists = [make_dist({(0, 0): 1.0}, 1, step=0), make_dist({(1, 1): 0.5}, 1, step=1)]
        with pytest.raises(InvariantViolationError, match="step 1"):
            write_distribution_csv((d for d in dists), tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()

    def test_unnormalized_distribution_rejected(self, tmp_path):
        bad = make_dist({(0, 0): 0.5}, 1)
        with pytest.raises(InvariantViolationError):
            write_distribution_csv([bad], tmp_path / "d.csv")

    def test_empty_distribution_rejected(self, tmp_path):
        empty = Distribution2D(np.zeros((3, 3)), 1, 0)
        with pytest.raises(InvariantViolationError):
            write_distribution_csv([empty], tmp_path / "d.csv")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_distribution_rejected(self, tmp_path, bad):
        dists = [make_dist({(0, 0): 1.0}, 1, step=0), make_dist({(1, 1): bad}, 1, step=3)]
        path = tmp_path / "d.csv"
        with pytest.raises(InvariantViolationError, match="step 3"):
            write_distribution_csv(dists, path)
        # every step is checked before the file is opened
        assert not path.exists()

    def test_bad_header_rejected_on_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_distribution_csv(path)

    def test_noncontiguous_steps_rejected_on_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("step,i,j,p\n0,0,0,1.0\n2,0,0,1.0\n")
        with pytest.raises(ConfigError):
            read_distribution_csv(path)

    def test_extreme_floats_round_trip_bit_for_bit(self, tmp_path):
        dists = [make_dist({(0, 0): 1.0}, 2, step=0),
                 make_dist({(-1, -1): 5e-324, (-1, 1): 1e-300, (1, -1): 0.1 + 0.2,
                            (1, 1): 0.7}, 2, step=1),
                 make_dist({(0, 0): 1 - 2**-53, (2, -2): 2**-53}, 2, step=2)]
        path = tmp_path / "d.csv"
        write_distribution_csv(dists, path)
        # the writer's own output takes the parse at C speed
        assert _parsed_columns(path) is not None
        back = read_distribution_csv(path)
        assert [d.step for d in back] == [0, 1, 2]
        for want, got in zip(dists, back):
            assert got.half_width == 2
            assert got.probs.tobytes() == want.probs.tobytes()
        for want, got in zip(back, reference_read_distribution_csv(path)):
            assert got.probs.tobytes() == want.probs.tobytes()

    def test_rows_out_of_key_order_read_the_same_grids_on_both_paths(self, tmp_path):
        dists = [make_dist({(0, 0): 1.0}, 1, step=0), make_dist(FIRST_STEP, 1, step=1)]
        path, reversed_path = tmp_path / "d.csv", tmp_path / "reversed.csv"
        write_distribution_csv(dists, path)
        header, *rows = path.read_text().splitlines()
        reversed_path.write_text("\n".join([header, *reversed(rows)]) + "\n")
        # no rule asks for the writer's row order, so the fast path takes the file
        fast, row_by_row = (
            [(a.dtype, a.tobytes()) for a in columns(reversed_path)]
            for columns in (_parsed_columns, _checked_columns))
        assert fast == row_by_row
        for want, got in zip(read_distribution_csv(path), read_distribution_csv(reversed_path)):
            assert got.step == want.step and got.half_width == want.half_width
            assert got.probs.tobytes() == want.probs.tobytes()


class TestResultJson:
    def test_round_trip(self, tmp_path):
        from qwalk2d import DisorderConfig, DisorderMode

        config = DisorderConfig(DisorderMode.DYNAMICAL_UNIFORM, math.pi, steps=3,
                                realizations=7, master_seed=11)
        doc = build_result_document(engine="trajectory", config=config,
                                    variances=[0.0, 2.0, 4.0, 7.5],
                                    stderrs=[0.0, 0.0, 0.1, 0.2],
                                    scaling={"error": "too short"},
                                    localization_x=None, localization_y=None)
        path = tmp_path / "r.json"
        write_result_json(doc, path)
        assert json.loads(path.read_text()) == doc

    def test_stderr_null_when_unknown(self, tmp_path):
        doc = build_result_document(engine="exact", config=None,
                                    variances=[0.0, 2.0], stderrs=None)
        assert all(row["stderr"] is None for row in doc["variance_series"])
        assert doc["config"] is None


class TestHeatmap:
    def test_rect_per_occupied_site(self, tmp_path):
        dist = make_dist(FIRST_STEP, 1, step=1)
        path = tmp_path / "h.svg"
        render_heatmap_svg(dist, path)
        text = path.read_text()
        assert text.startswith("<svg")
        # 2 background rects + 4 site rects
        assert text.count("<rect") == 6

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("log_scale", [False, True], ids=["linear", "log"])
    def test_non_finite_grid_rejected(self, tmp_path, bad, log_scale):
        dist = make_dist({(0, 0): 0.5, (1, 1): bad}, 1, step=2)
        path = tmp_path / "h.svg"
        with pytest.raises(InvariantViolationError, match="step 2"):
            render_heatmap_svg(dist, path, log_scale=log_scale)
        assert not path.exists()

    def test_ramp_matches_the_site_by_site_reference(self):
        # every t = k / 1024 (exact, so the stops 0.25, 0.5 and 0.75 are hit
        # exactly), t just beside each stop, and t outside [0, 1]
        stops = [0.0, 0.25, 0.5, 0.75, 1.0]
        t = np.concatenate([np.arange(1025) / 1024, np.nextafter(stops, -1.0),
                            np.nextafter(stops, 2.0), [-0.5, 1.5]])
        assert _ramp_colors(t) == [ramp_color(x) for x in t.tolist()]
        # among them, red channels that end in .5 and round half to even,
        # up and down: 68 - 0.5 * 9 = 63.5 at t = 0.125, 59 - 0.25 * 26 = 52.5
        # at t = 0.3125
        assert ramp_color(0.125)[1:3] == "40" and ramp_color(0.3125)[1:3] == "34"

    @pytest.mark.parametrize("log_scale", [False, True], ids=["linear", "log"])
    def test_site_colors_match_the_reference(self, tmp_path, log_scale):
        # t is exactly 0, 0.25, 0.5, 0.75 and 1 on either scale, plus every
        # k / 256 on the linear one
        if log_scale:
            probs = [10.0 ** -k for k in range(5)]
            assert [math.log10(p) for p in probs] == [0.0, -1.0, -2.0, -3.0, -4.0]
        else:
            probs = [k / 256 for k in range(1, 257)]
        half_width = 8
        sites = [(i, j) for i in range(-half_width, half_width + 1)
                 for j in range(-half_width, half_width + 1)]
        dist = make_dist(dict(zip(sites, probs)), half_width)
        path = tmp_path / "h.svg"
        render_heatmap_svg(dist, path, log_scale=log_scale)
        lo, hi = math.log10(min(probs)), math.log10(max(probs))
        rects = re.findall(r'<rect x="(\d+)" y="(\d+)" width="12" height="12" fill="(#\w+)"/>',
                           path.read_text())
        assert len(rects) == len(probs)
        size = 2 * half_width + 1
        for x, y, color in rects:
            u, v = (int(x) - 34) // 12, size - 1 - (int(y) - 34) // 12
            p = float(dist.probs[u, v])
            t = (math.log10(p) - lo) / (hi - lo) if log_scale else p / max(probs)
            assert color == ramp_color(t)

    def test_log_scale_changes_output(self, tmp_path):
        dist = make_dist({(0, 0): 0.9, (2, 2): 0.09, (-2, -2): 0.01}, 2)
        render_heatmap_svg(dist, tmp_path / "lin.svg", log_scale=False)
        render_heatmap_svg(dist, tmp_path / "log.svg", log_scale=True)
        assert (tmp_path / "lin.svg").read_text() != (tmp_path / "log.svg").read_text()


class TestCliRun:
    def test_unitary_run_variance_matches_independent_walker(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--mode", "none", "--zeta", "0", "--steps", "20",
                     "--realizations", "1", "--seed", "9", "--threads", "1",
                     "--out-dir", str(out)])
        assert code == 0
        rows = (out / "variance.csv").read_text().strip().splitlines()
        assert rows[0] == "n,V,stderr"
        last_n, last_v, _ = rows[-1].split(",")
        expected = ref_variance(ref_probs(ref_run(20)[-1]))
        assert int(last_n) == 20
        assert float(last_v) == pytest.approx(expected, abs=1e-9)
        for name in ("manifest.cfg", "distributions.csv", "variance.csv",
                     "result.json", "heatmap.svg"):
            assert (out / name).exists()

    def test_full_scale_run_completes_with_artifacts(self, tmp_path):
        out = tmp_path / "full"
        code = main(["run", "--mode", "dynamical-spatial", "--zeta", "pi",
                     "--steps", "20", "--realizations", "500", "--seed", "424242",
                     "--threads", "2", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        v20 = doc["variance_series"][20]["V"]
        assert 40.0 < v20 < 65.0
        dists = read_distribution_csv(out / "distributions.csv")
        assert len(dists) == 21
        for d in dists:
            assert abs(d.probs.sum() - 1.0) <= 1e-9

    def test_outputs_byte_identical_across_reruns_and_threads(self, tmp_path):
        args = ["run", "--mode", "dynamical-uniform", "--zeta", "pi/2",
                "--steps", "8", "--realizations", "48", "--seed", "31415"]
        dirs = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / tag
            assert main(args + ["--threads", threads, "--out-dir", str(out)]) == 0
            dirs.append(out)
        for name in ("distributions.csv", "variance.csv", "result.json", "heatmap.svg"):
            blobs = [(d / name).read_bytes() for d in dirs]
            assert blobs[0] == blobs[1] == blobs[2]
        # manifests agree when threads agree (out_dir line necessarily differs)
        strip = lambda d: [line for line in (d / "manifest.cfg").read_text().splitlines()
                           if not line.startswith("out_dir")]
        assert strip(dirs[0]) == strip(dirs[1])

    # at N=60 the CSV has 77,531 rows, so with two threads a forked helper
    # writes its later steps
    def test_multi_process_csv_writes_the_serial_bytes(self, tmp_path, monkeypatch):
        import qwalk2d.forkwrite as forkwrite

        helpers = []
        fork = forkwrite._fork

        def recording(job, fd):
            helpers.append(job)
            return fork(job, fd)

        monkeypatch.setattr(forkwrite, "_fork", recording)
        args = ["run", "--mode", "dynamical-spatial", "--zeta", "pi", "--steps", "60",
                "--realizations", "4", "--seed", "5"]
        for threads in ("1", "2"):
            assert main(args + ["--threads", threads, "--out-dir", str(tmp_path / threads)]) == 0
        assert len(helpers) == 1
        for name in ("distributions.csv", "variance.csv", "result.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    # unset, threads is the size of the affinity set (a taskset or container
    # limit narrows it), not the host's CPU count; without an affinity call
    # it falls back to the CPU count, and to 1 when that is unknown.  fit
    # parses its CSV on as many processes
    @pytest.mark.parametrize("affinity,cpus,threads",
                             [({0, 3}, 8, 2), (None, 5, 5), (None, None, 1)],
                             ids=["affinity", "cpu-count", "unknown"])
    def test_default_threads_are_the_cpus_the_process_may_use(self, tmp_path, monkeypatch,
                                                              affinity, cpus, threads):
        import qwalk2d.cli as cli_mod

        asked = []
        read_windows = cli_mod.read_distribution_windows

        def recording(config, threads):
            asked.append(threads)
            return run_ensemble(config, threads=1)

        def reading(path, threads):
            asked.append(threads)
            return read_windows(path, threads)

        monkeypatch.setattr(cli_mod, "run_ensemble", recording)
        monkeypatch.setattr(cli_mod, "read_distribution_windows", reading)
        if affinity is None:
            monkeypatch.delattr(cli_mod.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: cpus)
        out = tmp_path / "out"
        assert main(["run", "--mode", "none", "--zeta", "0", "--steps", "2",
                     "--realizations", "2", "--seed", "1", "--out-dir", str(out)]) == 0
        manifest = (out / "manifest.cfg").read_text().splitlines()
        assert not [line for line in manifest if line.startswith("threads")]
        assert main(["fit", str(out / "distributions.csv")]) == 0
        assert asked == [threads, threads]

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = dynamical-spatial\nzeta = pi\nsteps = 6\n"
                       "realizations = 4\nseed = 2\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--zeta", "0",
                     "--threads", "1", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["config"]["zeta"] == 0.0
        assert doc["config"]["mode"] == "dynamical-spatial"


    @pytest.mark.parametrize("steps", [70_001, 2_000_001])
    def test_window_buffer_that_cannot_be_allocated_is_config_error(self, tmp_path, capsys,
                                                                    steps):
        # the run's mean is one buffer of sum_n (n + 1)^2 window values: at
        # 70,001 steps 9.1e14 bytes, more than the 128 TiB (2**47 bytes) user
        # address space of x86-64, and at 2,000,001 steps a byte count past
        # 2**63, where numpy refuses the shape
        out = tmp_path / "out"
        assert main(["run", "--mode", "dynamical-spatial", "--zeta", "pi",
                     "--steps", str(steps), "--realizations", "1", "--seed", "1",
                     "--out-dir", str(out)]) == 2
        values = (steps + 1) * (steps + 2) * (2 * steps + 3) // 6
        assert (f"{steps + 1} steps need a {values} window buffer "
                f"(sum of (n + 1)^2 over n = 0..{steps})") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("realizations", [10**18, 10**16])
    def test_variance_array_that_cannot_be_allocated_is_config_error(self, tmp_path, capsys,
                                                                     realizations):
        # R x 2 variance rows: 1.6e19 bytes passes 2**63 and numpy refuses
        # the shape; 1.6e17 bytes is beyond a 57-bit address space
        out = tmp_path / "out"
        assert main(["run", "--mode", "none", "--zeta", "0", "--steps", "1",
                     "--realizations", str(realizations), "--seed", "1", "--threads", "1",
                     "--out-dir", str(out)]) == 2
        assert f"{realizations} x 2 variance array" in capsys.readouterr().err
        assert not out.exists()


class TestCliOracle:
    def test_oracle_writes_null_stderr(self, tmp_path):
        out = tmp_path / "oracle"
        code = main(["oracle", "--mode", "dynamical-spatial", "--zeta", "pi/2",
                     "--steps", "5", "--seed", "1", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["engine"] == "exact"
        assert doc["variance_series"][5]["stderr"] is None

    def test_oracle_step_cap_is_20(self, tmp_path, capsys):
        argv = ["oracle", "--mode", "dynamical-spatial", "--zeta", "pi", "--seed", "1",
                "--out-dir", str(tmp_path / "x")]
        assert main(argv + ["--steps", "21"]) == 2
        assert "limited to 20 steps" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        assert main(argv + ["--steps", "20"]) == 0
        doc = json.loads((tmp_path / "x" / "result.json").read_text())
        assert len(doc["variance_series"]) == 21

    def test_oracle_rejects_static_mode(self, tmp_path, capsys):
        code = main(["oracle", "--mode", "static-spatial", "--zeta", "pi",
                     "--steps", "5", "--seed", "1",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "static-spatial" in capsys.readouterr().err


class TestCliFit:
    # at N=70 a CSV grid row holds 141 sites, past numpy's 128-element
    # pairwise-sum block, so the run's V(n) from its windows must pad each
    # row as the refit's dense grid does to match it bit for bit
    @pytest.mark.parametrize("command,mode,zeta,steps,realizations", [
        pytest.param("run", "none", "0", 14, 1, id="run"),
        pytest.param("oracle", "none", "0", 14, 1, id="oracle"),
        pytest.param("run", "dynamical-spatial", "pi", 70, 4, id="run-dynamical-spatial-n70")])
    def test_refit_reproduces_run_fits(self, tmp_path, command, mode, zeta, steps,
                                       realizations):
        out = tmp_path / "out"
        assert main([command, "--mode", mode, "--zeta", zeta, "--steps", str(steps),
                     "--realizations", str(realizations), "--seed", "6", "--threads", "1",
                     "--fit-n-lo", "7", "--out-dir", str(out)]) == 0
        refit = tmp_path / "refit.json"
        assert main(["fit", str(out / "distributions.csv"), "--fit-n-lo", "7",
                     "--out", str(refit)]) == 0
        original = json.loads((out / "result.json").read_text())
        again = json.loads(refit.read_text())
        assert again["engine"] == "refit"
        pairs = lambda doc: [(e["n"], e["V"]) for e in doc["variance_series"]]
        assert pairs(again) == pairs(original)
        assert again["fits"] == original["fits"]

    def test_fit_builds_no_dense_stack(self, tmp_path, monkeypatch):
        # an N=70 run's dense stack is 71 x 141 x 141 values; fit must take
        # V(n) and the last grid from the windows without one, so the dense
        # results raise and no np.zeros call may ask for that many values
        import qwalk2d.evolve as evolve_mod
        import qwalk2d.io as io_mod

        out = tmp_path / "out"
        assert main(["run", "--mode", "dynamical-spatial", "--zeta", "pi", "--steps", "70",
                     "--realizations", "2", "--seed", "6", "--threads", "1",
                     "--out-dir", str(out)]) == 0
        dense, zeros = 71 * 141 * 141, np.zeros

        def refused(*args):
            raise AssertionError("fit built a dense stack")

        def small_zeros(shape, *args, **kwargs):
            assert np.prod(shape) < dense, f"fit allocated a {shape} array"
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(evolve_mod.WalkResult, "probabilities", property(refused))
        monkeypatch.setattr(evolve_mod.WalkResult, "distributions", refused)
        monkeypatch.setattr(io_mod, "read_distribution_csv", refused)
        monkeypatch.setattr(np, "zeros", small_zeros)
        assert main(["fit", str(out / "distributions.csv"), "--out",
                     str(tmp_path / "refit.json")]) == 0
        monkeypatch.undo()
        pairs = lambda doc: [(e["n"], e["V"]) for e in doc["variance_series"]]
        again = json.loads((tmp_path / "refit.json").read_text())
        assert pairs(again) == pairs(json.loads((out / "result.json").read_text()))

    def test_fit_can_echo_config_from_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--mode", "none", "--zeta", "0", "--steps", "12",
                     "--realizations", "1", "--seed", "6", "--threads", "1",
                     "--out-dir", str(out)]) == 0
        refit = tmp_path / "refit.json"
        assert main(["fit", str(out / "distributions.csv"),
                     "--manifest", str(out / "manifest.cfg"),
                     "--out", str(refit)]) == 0
        doc = json.loads(refit.read_text())
        assert doc["config"]["mode"] == "none"
        assert doc["config"]["seed"] == 6


class TestCliFitInput:
    @pytest.fixture
    def run_dir(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--mode", "none", "--zeta", "0", "--steps", "4",
                     "--realizations", "1", "--seed", "6", "--threads", "1",
                     "--out-dir", str(out)]) == 0
        return out

    def test_bad_fit_flag_is_config_error(self, run_dir, capsys):
        code = main(["fit", str(run_dir / "distributions.csv"), "--fit-n-lo", "abc"])
        assert code == 2
        assert "fit.n_lo" in capsys.readouterr().err
        assert not (run_dir / "fits.json").exists()

    @pytest.mark.parametrize("row", ["0,0,0,x", "0,0,0", "0,a,0,1.0", "0,0,0,1.0,7",
                                     "0,100000000,0,1.0", "0,99999999999999999999,0,1.0"])
    def test_malformed_row_is_config_error(self, tmp_path, capsys, row):
        path = tmp_path / "d.csv"
        path.write_text(f"step,i,j,p\n{row}\n")
        assert main(["fit", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "line 2" in err

    @pytest.mark.parametrize("rows,reason", [
        ("0,0,0,2.0\n0,1,1,-1.0", "negative"),
        ("0,0,0,0.5\n0,0,0,1.0", "repeats step 0, site (0, 0)"),
        ("0,0,0,1.0\n0,5,0,0.0", "site (5, 0) lies outside |i|, |j| <= step 0"),
        ("0,0,0,2.0\n0,5,0,-1.0", "negative"),
        ("0,0,0,1.0\n1,1,0,1.0", "site (1, 0) lies off i = j = step (mod 2) for step 1"),
        ('0,0,0,1.0\n1,1,0,"1.0"', "site (1, 0) lies off i = j = step (mod 2) for step 1"),
        # -step wraps to step in int64, so only the sign rules out this cone
        (f"0,0,0,1.0\n{-2**63},{-2**63},{-2**63},0.0",
         f"site ({-2**63}, {-2**63}) lies outside |i|, |j| <= step {-2**63}"),
    ], ids=["negative-p", "repeated-row", "outside-light-cone", "negative-p-outside",
            "off-parity", "off-parity-row-by-row", "int64-min-step"])
    def test_invalid_row_is_config_error(self, tmp_path, capsys, rows, reason):
        # each file sums to 1 per step, so only the row check can catch it;
        # a quoted field sends the file straight to the row-by-row reader
        path = tmp_path / "d.csv"
        path.write_text(f"step,i,j,p\n{rows}\n")
        assert main(["fit", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "line 3" in err and reason in err

    def test_step_past_64_bits_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("step,i,j,p\n99999999999999999999,0,0,1.0\n")
        assert main(["fit", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_field_past_the_csv_size_limit_is_config_error(self, tmp_path, capsys):
        # a quoted field sends the file to the row-by-row reader, whose csv
        # module refuses a field over 131,072 characters
        path = tmp_path / "d.csv"
        path.write_text('step,i,j,p\n0,0,0,"' + "1" * 200_000 + '"\n')
        assert main(["fit", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: line 2: field larger than field limit" in err
        assert not (tmp_path / "fits.json").exists()

    @pytest.mark.parametrize("name", ["d.csv.gz", "d.csv.bz2", "d.csv.xz", "d.csv.lzma",
                                      "x-none://host/d.csv"])
    def test_plain_csv_named_as_numpy_opens_no_plain_file_fits_the_same(
            self, run_dir, tmp_path, monkeypatch, name):
        # np.loadtxt opens a path through numpy's DataSource, which reads the
        # first names as compressed and takes the last, a relative path, for a
        # URL: the compressed ones go row by row, the last is read in place
        monkeypatch.chdir(tmp_path)
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        Path(name).write_bytes((run_dir / "distributions.csv").read_bytes())
        manifest = ["--manifest", str(run_dir / "manifest.cfg")]
        assert main(["fit", str(run_dir / "distributions.csv"), *manifest,
                     "--out", "want.json"]) == 0
        assert main(["fit", name, *manifest, "--out", "got.json"]) == 0
        assert Path("got.json").read_bytes() == Path("want.json").read_bytes()
        assert (_parsed_columns(name) is None) == (not name.startswith("x-none:"))
        assert not Path("host").exists()  # where DataSource caches a URL's file

    @pytest.mark.parametrize("n_steps", [70_001, 1_600_001])
    def test_window_buffer_that_cannot_be_allocated_is_config_error(self, tmp_path, capsys,
                                                                    n_steps):
        # every row is valid, one per step at site (s mod 2, s mod 2), but the
        # window buffer of sum_n (n + 1)^2 values up to the last step cannot
        # exist: at 70,001 steps 9.1e14 bytes, more than the 128 TiB (2**47
        # bytes) user address space of x86-64, and at 1,600,001 steps a byte
        # count past 2**63, where numpy refuses the shape.  (At 20,001 steps
        # the buffer is 2.1e13 bytes, which overcommit could grant.)
        last = n_steps - 1
        path = tmp_path / "d.csv"
        path.write_text("step,i,j,p\n" + "".join(f"{s},{s % 2},{s % 2},1.0\n"
                                                 for s in range(n_steps)))
        assert main(["fit", str(path)]) == 2
        err = capsys.readouterr().err
        values = (last + 1) * (last + 2) * (2 * last + 3) // 6
        assert (f"error: {path}: {n_steps} steps need a {values} window buffer "
                f"(sum of (n + 1)^2 over n = 0..{last})") in err
        assert not (tmp_path / "fits.json").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_probability_exits_4(self, run_dir, capsys, bad):
        path = run_dir / "distributions.csv"
        lines = path.read_text().splitlines()
        step, i, j, _ = lines[-1].split(",")
        lines[-1] = f"{step},{i},{j},{bad}"
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(path)]) == 4
        assert f"step {step}" in capsys.readouterr().err
        assert not (run_dir / "fits.json").exists()


class TestCliUndecodableFile:
    """A byte that does not decode exits 2 and names the file."""

    @pytest.fixture
    def undecodable(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"mode = none\xff\n")
        return path

    def test_config_file(self, undecodable, tmp_path, capsys):
        assert main(["run", "--config", str(undecodable), "--seed", "1",
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert str(undecodable) in capsys.readouterr().err

    def test_fit_manifest(self, undecodable, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("step,i,j,p\n0,0,0,1.0\n")
        assert main(["fit", str(csv_path), "--manifest", str(undecodable)]) == 2
        assert str(undecodable) in capsys.readouterr().err
        assert not (tmp_path / "fits.json").exists()

    def test_distributions_csv(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"step,i,j,p\n0,0,0,1.0\xff\n")
        assert main(["fit", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


class TestCliBadFileLine:
    """A bad file line exits 2 and names the file: a line that is not
    `key = value` (named by its number), or a value its setting cannot
    parse, even when a flag sets the same key."""

    CASES = [("junk", "config line 2: expected 'key = value', got 'junk'"),
             ("steps = abc", "bad value for 'steps': 'abc'"),
             ("schema = 7", "schema must be 1, got '7'"),
             ("mode = bogus", "unknown mode 'bogus'"),
             ("zeta = 9", "zeta must lie in [0, pi], got 9.0"),
             ("steps = 0", "steps must be >= 1, got 0"),
             ("realizations = 0", "realizations must be >= 1, got 0"),
             ("seed = -1", "master_seed must be an unsigned 64-bit integer, got -1"),
             ("threads = 0", "threads must be >= 1, got 0")]

    def bad_files(self, tmp_path):
        for k, (line, message) in enumerate(self.CASES):
            path = tmp_path / f"bad{k}.cfg"
            path.write_text(f"mode = none\n{line}\n")
            yield path, message

    def test_config_file(self, tmp_path, capsys):
        for path, message in self.bad_files(tmp_path):
            assert main(["run", "--config", str(path), "--seed", "1", "--steps", "3",
                         "--out-dir", str(tmp_path / "x")]) == 2
            assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_fit_manifest(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("step,i,j,p\n0,0,0,1.0\n")
        for path, message in self.bad_files(tmp_path):
            assert main(["fit", str(csv_path), "--manifest", str(path)]) == 2
            assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "fits.json").exists()

    def test_config_file_value_under_a_flag(self, tmp_path, capsys):
        # the flag overrides the file's threads, yet the file's line is bad
        path = tmp_path / "bad.cfg"
        path.write_text("mode = none\nthreads = 0\n")
        assert main(["run", "--config", str(path), "--seed", "1", "--steps", "3",
                     "--threads", "1", "--out-dir", str(tmp_path / "x")]) == 2
        assert f"error: {path}: threads must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--mode", "bogus", "unknown mode 'bogus'"),
        ("--zeta", "9", "zeta must lie in [0, pi], got 9.0"),
        ("--steps", "0", "steps must be >= 1, got 0"),
        ("--realizations", "0", "realizations must be >= 1, got 0"),
        ("--threads", "0", "threads must be >= 1, got 0"),
    ])
    def test_bad_flag_value_names_no_file(self, tmp_path, capsys, flag, value, message):
        argv = {"--mode": "none", "--seed": "1", "--out-dir": str(tmp_path / "x"), flag: value}
        assert main(["run", *[a for pair in argv.items() for a in pair]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCliSettings:
    """Each RunManifest setting with a flag: --fit-n-lo sets fit.n_lo."""

    VALUES = {"mode": "dynamical-uniform", "zeta": "pi/2", "steps": "5",
              "realizations": "3", "seed": "8", "threads": "2", "out_dir": "moved",
              "fit.n_lo": "2", "fit.n_hi": "4", "fit.d_lo": "1", "fit.d_hi": "3"}
    BASE = {"mode": "none", "zeta": "0", "steps": "4", "realizations": "1", "seed": "3",
            "threads": "1", "out_dir": "out"}

    @pytest.mark.parametrize("key", [s.metadata["key"] for s in fields(RunManifest)
                                     if s.metadata["help"]])
    def test_flag_and_config_line_set_the_same_field(self, tmp_path, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        base = {k: v for k, v in self.BASE.items() if k != key}
        out = Path(self.VALUES[key] if key == "out_dir" else base["out_dir"])
        written = []
        for line, flag in (([f"{key} = {self.VALUES[key]}"], []),
                           ([], [f"--{key.replace('.', '-').replace('_', '-')}",
                                 self.VALUES[key]])):
            cfg = tmp_path / "run.cfg"
            cfg.write_text("\n".join([f"{k} = {v}" for k, v in base.items()] + line) + "\n")
            assert main(["run", "--config", str(cfg), *flag]) == 0
            written.append(read_manifest(out / "manifest.cfg"))
        assert written[0] == written[1]
        name = key.replace(".", "_")
        unset = manifest_from_pairs(base)
        assert getattr(written[0], name) != getattr(unset, name)
        assert replace(unset, **{name: getattr(written[0], name)}) == written[0]

    @pytest.mark.parametrize("command,cfg_engine,engine",
                             [("run", "exact", "trajectory"), ("oracle", "trajectory", "exact")])
    def test_subcommand_sets_the_engine(self, tmp_path, command, cfg_engine, engine):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"engine = {cfg_engine}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--mode", "none", "--zeta", "0",
                     "--steps", "3", "--realizations", "1", "--seed", "1",
                     "--threads", "1", "--out-dir", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["engine"] == engine
        assert f"engine = {engine}\n" in (out / "manifest.cfg").read_text()


def test_cli_import_loads_no_process_pool():
    # a fresh interpreter, as a CLI start has; the pool's module loads only
    # when a run starts the pool
    package_root = Path(qwalk2d.__file__).parent.parent
    code = ("import sys, qwalk2d.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


class TestCliExitCodes:
    def test_zeta_out_of_range_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--mode", "none", "--zeta", "4.0", "--steps", "5",
                     "--seed", "1", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "zeta" in capsys.readouterr().err

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--mode", "none", "--zeta", "0", "--steps", "5",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_mode_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--zeta", "0", "--steps", "5", "--seed", "1",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "mode" in capsys.readouterr().err

    def test_unwritable_out_dir_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["run", "--mode", "none", "--zeta", "0", "--steps", "3",
                     "--realizations", "1", "--seed", "1", "--threads", "1",
                     "--out-dir", str(blocker)])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a#b", "a\nb", "a\u2028b", " a", "a "],
                             ids=["hash", "newline", "line-separator", "leading-space",
                                  "trailing-space"])
    def test_out_dir_the_manifest_cannot_hold_is_config_error(self, tmp_path, capsys,
                                                              monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--mode", "none", "--zeta", "0", "--steps", "3",
                     "--realizations", "1", "--seed", "1", "--threads", "1",
                     "--out-dir", name])
        assert code == 2
        assert "error: out_dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # only a config file can carry a NUL byte: a command line cannot
    def test_out_dir_with_a_nul_byte_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out_dir = a\0b\n")
        code = main(["run", "--config", str(cfg), "--mode", "none", "--zeta", "0",
                     "--steps", "3", "--realizations", "1", "--seed", "1", "--threads", "1"])
        assert code == 2
        assert f"error: {cfg}: out_dir 'a\\x00b'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_engine_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("engine = warp\n")
        code = main(["run", "--config", str(cfg), "--mode", "none", "--zeta", "0",
                     "--steps", "3", "--seed", "1", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "engine 'warp'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_other_schema_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("schema = 2\n")
        code = main([command, "--config", str(cfg), "--mode", "none", "--zeta", "0",
                     "--steps", "3", "--seed", "1", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "schema must be 1, got '2'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invariant_violation_exits_4(self, tmp_path, capsys, monkeypatch):
        import qwalk2d.cli as cli_mod

        def drifted(config, threads):
            raise InvariantViolationError("norm drifted by 1.0e-03 at step 2")

        monkeypatch.setattr(cli_mod, "run_ensemble", drifted)
        code = main(["run", "--mode", "none", "--zeta", "0", "--steps", "3",
                     "--realizations", "1", "--seed", "1", "--threads", "1",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 4
        assert "invariant" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_amplitude_exits_4_naming_trajectory_and_step(self, tmp_path, capsys,
                                                              monkeypatch):
        import qwalk2d.evolve as evolve_mod

        class NanSampler(evolve_mod.PhaseSampler):
            def __init__(self, config, k):
                super().__init__(config, k)
                self.index = k

            def fill_window(self, step, out, rows):
                super().fill_window(step, out, rows)
                if (self.index, step) == (5, 3):
                    out[...] = np.nan

        monkeypatch.setattr(evolve_mod, "PhaseSampler", NanSampler)
        code = main(["run", "--mode", "dynamical-spatial", "--zeta", "pi", "--steps", "4",
                     "--realizations", "8", "--seed", "1", "--threads", "1",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 4
        assert "trajectory 5: norm at step 3 is nan" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
