"""The distributions CSV written by several processes: the same bytes for
any part count, and no child process or temporary file left behind when a
part fails."""

import errno
import math
import os
import time

import numpy as np
import pytest

import qwalk2d.forkwrite as forkwrite
import qwalk2d.io as io
from qwalk2d import DisorderConfig, DisorderMode, Distribution2D, run_ensemble
from qwalk2d.cli import main


def windows_of(mode, steps=9, realizations=3):
    cfg = DisorderConfig(mode, math.pi / 2, steps=steps, realizations=realizations,
                         master_seed=11)
    return run_ensemble(cfg).windows


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The step ranges given to helpers, recorded as forkwrite._fork_helper
    is called."""
    ranges = []
    fork_helper = forkwrite._fork_helper

    def recording(fd, grids, render):
        ranges.append([step for step, _, _, _ in grids])
        return fork_helper(fd, grids, render)

    monkeypatch.setattr(forkwrite, "_fork_helper", recording)
    return ranges


@pytest.fixture
def split_everything(monkeypatch):
    monkeypatch.setattr(io, "MIN_PART_ROWS", 1)


def row_loop(entries):
    """The CSV text of (step, grid, stride, offset) entries, one row at a time."""
    lines = ["step,i,j,p"]
    for step, grid, stride, offset in entries:
        for (u, v), p in np.ndenumerate(grid):
            if p > 0:
                lines.append(f"{step},{stride * u - offset},{stride * v - offset},{float(p)!r}")
    return "\n".join(lines) + "\n"


MODES = [DisorderMode.DYNAMICAL_SPATIAL, DisorderMode.STATIC_SPATIAL, DisorderMode.NONE]


@pytest.mark.usefixtures("split_everything")
class TestSameBytes:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_serial_rows_are_those_of_a_row_loop(self, tmp_path, mode):
        windows = windows_of(mode)
        io.write_window_csv(windows, tmp_path / "d.csv")
        entries = [(n, window, 2, n) for n, window in enumerate(windows)]
        assert (tmp_path / "d.csv").read_text() == row_loop(entries)

    # static-spatial and none omit zero sites of their windows; 15 parts
    # are more than the 10 steps
    @pytest.mark.parametrize("threads", [2, 3, 15])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_windows_in_any_part_count(self, tmp_path, forks, mode, threads):
        windows = windows_of(mode)
        io.write_window_csv(windows, tmp_path / "serial.csv", 1)
        assert forks == []
        io.write_window_csv(windows, tmp_path / "parts.csv", threads)
        # a range of steps may round to empty and be dropped
        assert 0 < len(forks) < min(threads, len(windows))
        assert [step for steps in forks for step in steps] == list(range(forks[0][0], 10))
        assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["parts.csv", "serial.csv"]
        assert_no_child_left()

    @pytest.mark.parametrize("threads", [2, 3, 15])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_dense_grids_in_any_part_count(self, tmp_path, forks, mode, threads):
        dists = run_ensemble(DisorderConfig(mode, math.pi / 2, steps=9, realizations=3,
                                            master_seed=11)).distributions()
        io.write_distribution_csv(dists, tmp_path / "serial.csv")
        io.write_distribution_csv(dists, tmp_path / "parts.csv", threads)
        assert 0 < len(forks) < min(threads, len(dists))
        assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert_no_child_left()

    @pytest.mark.parametrize("threads", [2, 3, 5])
    def test_integer_grids_written_as_floats(self, tmp_path, forks, threads):
        dists = []
        for step in range(4):
            probs = np.zeros((5, 5), dtype=np.int64)
            probs[step, 4 - step] = 1
            dists.append(Distribution2D(probs, 2, step))
        io.write_distribution_csv(dists, tmp_path / "d.csv", threads)
        assert len(forks) == min(threads, 4) - 1
        assert (tmp_path / "d.csv").read_text() == (
            "step,i,j,p\n0,-2,2,1.0\n1,-1,1,1.0\n2,0,0,1.0\n3,1,-1,1.0\n")

    def test_empty_list_writes_the_header(self, tmp_path, forks):
        io.write_distribution_csv([], tmp_path / "d.csv", 4)
        assert forks == []
        assert (tmp_path / "d.csv").read_text() == "step,i,j,p\n"

    def test_without_fork_one_process_writes(self, tmp_path, forks, monkeypatch):
        windows = windows_of(DisorderMode.DYNAMICAL_SPATIAL)
        io.write_window_csv(windows, tmp_path / "serial.csv")
        monkeypatch.delattr(os, "fork")
        io.write_window_csv(windows, tmp_path / "d.csv", 4)
        assert forks == []
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    @pytest.mark.parametrize("copy_file_range", ["missing", "unsupported"])
    def test_appended_in_bounded_chunks_without_copy_file_range(self, tmp_path, forks,
                                                                monkeypatch, copy_file_range):
        windows = windows_of(DisorderMode.DYNAMICAL_SPATIAL)
        io.write_window_csv(windows, tmp_path / "serial.csv")
        if copy_file_range == "missing":
            monkeypatch.delattr(os, "copy_file_range", raising=False)
        else:
            def unsupported(*args):
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

            monkeypatch.setattr(os, "copy_file_range", unsupported, raising=False)
        monkeypatch.setattr(forkwrite, "_COPY_BYTES", 7)
        io.write_window_csv(windows, tmp_path / "d.csv", 3)
        assert len(forks) == 2
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


class TestPartThreshold:
    # the steps' grid sizes, sum_n (n + 1)^2, reach 2 MIN_PART_ROWS, the
    # fewest rows two processes write, between steps and steps + 1
    @pytest.mark.parametrize("extra_step,helpers", [(0, 0), (1, 1)], ids=["below", "above"])
    def test_two_parts_from_twice_the_minimum(self, tmp_path, forks, extra_step, helpers):
        steps = 0
        while sum((n + 1) ** 2 for n in range(steps + 2)) < 2 * io.MIN_PART_ROWS:
            steps += 1
        windows = windows_of(DisorderMode.DYNAMICAL_SPATIAL, steps + extra_step, 1)
        rows = sum(window.size for window in windows)
        assert (rows < 2 * io.MIN_PART_ROWS) == (extra_step == 0)
        io.write_window_csv(windows, tmp_path / "serial.csv", 1)
        io.write_window_csv(windows, tmp_path / "d.csv", 2)
        assert len(forks) == helpers
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert_no_child_left()


@pytest.mark.usefixtures("split_everything")
class TestFailedPart:
    # three parts of steps 0-5, 6-7 and 8-9; the second or the third fails
    @pytest.mark.parametrize("bad_step", [7, 9])
    def test_failing_helper_is_an_os_error_naming_the_file(self, tmp_path, forks,
                                                           monkeypatch, bad_step):
        step_rows = io._step_rows

        def failing(entry):
            if entry[0] == bad_step:
                raise ValueError("cannot format")
            return step_rows(entry)

        monkeypatch.setattr(io, "_step_rows", failing)
        path = tmp_path / "d.csv"
        with pytest.raises(OSError, match=f"{path}: the process writing items"):
            io.write_window_csv(windows_of(DisorderMode.DYNAMICAL_SPATIAL), path, 3)
        assert forks == [[6, 7], [8, 9]]
        assert os.listdir(tmp_path) == ["d.csv"]
        assert_no_child_left()

    def test_failing_helper_exits_3_through_the_cli(self, tmp_path, capsys, monkeypatch):
        step_rows = io._step_rows

        def failing(entry):
            if entry[0] == 10:
                raise ValueError("cannot format")
            return step_rows(entry)

        monkeypatch.setattr(io, "_step_rows", failing)
        out = tmp_path / "out"
        code = main(["run", "--mode", "dynamical-spatial", "--zeta", "pi", "--steps", "10",
                     "--realizations", "2", "--seed", "1", "--threads", "2",
                     "--out-dir", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"i/o error: {out / 'distributions.csv'}: the process writing items" in err
        assert sorted(os.listdir(out)) == ["distributions.csv", "manifest.cfg"]
        assert_no_child_left()

    def test_error_in_this_process_kills_and_reaps_the_helpers(self, tmp_path, forks,
                                                               monkeypatch):
        parent = os.getpid()
        step_rows = io._step_rows

        def stalling(entry):
            if os.getpid() != parent:
                time.sleep(60)  # a helper that would outlive the test
            elif entry[0] == 3:
                raise RuntimeError("parent failed")
            return step_rows(entry)

        monkeypatch.setattr(io, "_step_rows", stalling)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="parent failed"):
            io.write_window_csv(windows_of(DisorderMode.DYNAMICAL_SPATIAL), tmp_path / "d.csv", 3)
        assert time.monotonic() - t0 < 30
        assert len(forks) == 2
        assert os.listdir(tmp_path) == ["d.csv"]
        assert_no_child_left()
