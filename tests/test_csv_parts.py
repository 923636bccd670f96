"""The distributions CSV written and read by several processes: the same
bytes and the same columns for any part count, and no child process or
temporary file left behind when a part fails."""

import math
import os
import time
import warnings

import numpy as np
import pytest

import qwalk2d.forkwrite as forkwrite
import qwalk2d.io as io
from qwalk2d import DisorderConfig, DisorderMode, Distribution2D, run_ensemble
from qwalk2d.cli import main
from qwalk2d.errors import ConfigError
from reference import read_distribution_csv as reference_read_distribution_csv


def windows_of(mode, steps=9, realizations=3):
    cfg = DisorderConfig(mode, math.pi / 2, steps=steps, realizations=realizations,
                         master_seed=11)
    return run_ensemble(cfg).windows


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The arguments of each helper's job, recorded as forkwrite._fork is
    called: (items, render) for a CSV write, (path, lo, hi) for a read."""
    jobs = []
    fork = forkwrite._fork

    def recording(job, fd):
        jobs.append(job.args)
        return fork(job, fd)

    monkeypatch.setattr(forkwrite, "_fork", recording)
    return jobs


def steps_of(forks):
    """The steps of each helper's range of a CSV write."""
    return [[step for step, _, _, _ in items] for items, _ in forks]


@pytest.fixture
def split_everything(monkeypatch):
    monkeypatch.setattr(io, "MIN_PART_ROWS", 1)


def open_fds():
    """The file descriptors this process holds open."""
    return sorted(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))


def same_columns(got, want):
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


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
        steps = [step for part in steps_of(forks) for step in part]
        assert steps == list(range(steps[0], 10))
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

    def test_appended_in_bounded_chunks(self, tmp_path, forks, monkeypatch):
        windows = windows_of(DisorderMode.DYNAMICAL_SPATIAL)
        io.write_window_csv(windows, tmp_path / "serial.csv")
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
        assert steps_of(forks) == [[6, 7], [8, 9]]
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


class TestParsedInParts:
    # an N=60 walk: 77,531 rows, which hold three parts of MIN_PART_ROWS
    @pytest.fixture(scope="class")
    def long_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        io.write_window_csv(windows_of(DisorderMode.DYNAMICAL_SPATIAL, 60, 2), path)
        return path

    @pytest.fixture
    def own_parts(self, monkeypatch):
        """The (lo, hi) line range of each part this process parses."""
        parent, part_rows, ranges = os.getpid(), io._part_rows, []

        def recording(path, lo, hi):
            if os.getpid() == parent:
                ranges.append((lo, hi))
            return part_rows(path, lo, hi)

        monkeypatch.setattr(io, "_part_rows", recording)
        return ranges

    def test_writer_made_file_reads_the_same_columns_in_1_2_3_parts(self, long_csv, forks,
                                                                     own_parts):
        assert 77_531 > 3 * io.MIN_PART_ROWS
        one = io._parsed_columns(long_csv, 1)
        assert forks == [] and len(one[0]) == 77_531
        assert own_parts == [(0, 77_531)]
        for threads in (2, 3):
            own_parts.clear()
            assert same_columns(io._parsed_columns(long_csv, threads), one)
            assert len(forks) == threads - 1
            # this process parses the first range, and each helper's range
            # starts where the one before ends, so every row is parsed once
            ranges = own_parts + [(lo, hi) for _, lo, hi in forks]
            assert all(path == long_csv for path, _, _ in forks)
            assert ranges[0][0] == 0 and ranges[-1][1] == 77_531
            assert [hi for _, hi in ranges[:-1]] == [lo for lo, _ in ranges[1:]]
            assert all(lo < hi for lo, hi in ranges)
            forks.clear()
        want = io.read_distribution_windows(long_csv, 1)
        assert [w.tobytes() for w in io.read_distribution_windows(long_csv, 3)] == [
            w.tobytes() for w in want]
        assert_no_child_left()

    # two parts from twice MIN_PART_ROWS of body lines
    @pytest.mark.parametrize("extra,helpers", [(1, 0), (0, 1)], ids=["below", "above"])
    def test_two_parts_from_twice_the_minimum(self, long_csv, forks, monkeypatch, extra,
                                              helpers):
        monkeypatch.setattr(io, "MIN_PART_ROWS", 77_531 // 2 + extra)
        assert io._parsed_columns(long_csv, 2) is not None
        assert len(forks) == helpers

    def test_without_fork_one_process_parses(self, long_csv, forks, monkeypatch):
        one = io._parsed_columns(long_csv, 1)
        monkeypatch.delattr(os, "fork")
        assert same_columns(io._parsed_columns(long_csv, 3), one)
        assert forks == []

    # an edit of row 70,000 of the N=60 file, which lies in the second
    # helper's range of three
    @pytest.mark.parametrize("edit", ["negative-p", "repeat"])
    def test_fault_in_a_helpers_range_is_worded_by_the_fast_path(self, long_csv, tmp_path,
                                                                  forks, monkeypatch, edit):
        header, *rows = long_csv.read_text().splitlines()
        if edit == "negative-p":
            head, p = rows[70_000].rsplit(",", 1)
            rows[70_000] = f"{head},-{p}"
        else:  # row 60,000 again, before row 70,000
            rows.insert(70_000, rows[60_000])
        path = tmp_path / "d.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ConfigError) as want:
            reference_read_distribution_csv(path)
        assert str(want.value).startswith(f"{path}: line 70002: ")

        def unreachable(path):
            raise AssertionError("the fast path sent the file row by row")

        monkeypatch.setattr(io, "_checked_columns", unreachable)
        with pytest.raises(ConfigError) as got:
            io.read_distribution_windows(path, 3)
        assert str(got.value) == str(want.value)
        assert len(forks) == 2 and forks[1][1] <= 70_000 < forks[1][2]
        assert_no_child_left()

    @pytest.mark.usefixtures("split_everything")
    def test_more_threads_than_rows_make_no_empty_part_and_no_warning(self, tmp_path, forks,
                                                                      own_parts):
        path = tmp_path / "d.csv"
        path.write_bytes(b"step,i,j,p\n0,0,0,1.0\n1,1,1,1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a helper inherits the filter
            columns = io._parsed_columns(path, 3)
        assert same_columns(columns, io._parsed_columns(path, 1))
        assert [args[1:] for args in forks] == [(1, 2)]
        assert own_parts == [(0, 1), (0, 2)]
        assert_no_child_left()

    # a path's text mode reads each CR LF as LF, so np.loadtxt sees the
    # lines of the LF file
    @pytest.mark.usefixtures("split_everything")
    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\r\n").replace("\r\n", "\n", 1),
    ], ids=["crlf", "crlf-body"])
    def test_crlf_line_ends_take_the_fast_path(self, tmp_path, forks, edit):
        path, crlf = tmp_path / "d.csv", tmp_path / "crlf.csv"
        io.write_window_csv(windows_of(DisorderMode.DYNAMICAL_SPATIAL), path)
        want = io._parsed_columns(path, 3)
        forks.clear()
        crlf.write_text(edit(path.read_text()), newline="")
        assert same_columns(io._parsed_columns(crlf, 3), want)
        assert [args[0] for args in forks] == [crlf, crlf]

    @pytest.mark.usefixtures("split_everything")
    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n").replace("\r\n1,", "\r\r\n1,", 1),
        lambda text: text.replace("\n", "\r\n").replace("\r\n1,", "\r\n\r\n1,", 1),
        lambda text: text.replace("\n1,", "\n\n1,", 1),
        lambda text: text[:-1],
    ], ids=["lone-cr", "blank-crlf-line", "blank-line", "no-final-newline"])
    def test_other_line_breaks_are_read_row_by_row(self, tmp_path, forks, edit):
        path = tmp_path / "d.csv"
        io.write_window_csv(windows_of(DisorderMode.DYNAMICAL_SPATIAL), path)
        want = [w.tobytes() for w in io.read_distribution_windows(path, 3)]
        forks.clear()
        path.write_text(edit(path.read_text()), newline="")
        assert io._parsed_columns(path, 3) is None
        assert forks == []
        assert [w.tobytes() for w in io.read_distribution_windows(path, 3)] == want

    def test_records_that_cannot_be_allocated_send_the_file_row_by_row(self, tmp_path,
                                                                      monkeypatch):
        # a file of many short lines that are not rows may ask for more record
        # memory than there is
        path = tmp_path / "d.csv"
        path.write_text("step,i,j,p\n" + "0\n" * 3)

        def refusing(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "empty", refusing)
        assert io._parsed_columns(path, 1) is None
        monkeypatch.undo()
        with pytest.raises(ConfigError, match=f"{path}: line 2: expected integers"):
            io.read_distribution_windows(path)

    @pytest.mark.parametrize("rewrite", ["longer", "touched", "moved-in"])
    def test_file_rewritten_during_the_parse_is_declined(self, tmp_path, monkeypatch,
                                                         rewrite):
        path = tmp_path / "d.csv"
        path.write_text("step,i,j,p\n0,0,0,1.0\n")
        part_rows = io._part_rows

        def rewriting(*args):
            if rewrite == "longer":
                path.write_text("step,i,j,p\n0,0,0,1.0\n1,1,1,1.0\n")
            elif rewrite == "touched":
                os.utime(path, ns=(0, 0))
            else:  # a file of the same size and mtime, as `cp -p` then `mv` leave
                other = tmp_path / "e.csv"
                other.write_text("step,i,j,p\n0,0,0,0.5\n")
                stat = os.stat(path)
                os.utime(other, ns=(stat.st_atime_ns, stat.st_mtime_ns))
                os.replace(other, path)
            return part_rows(*args)

        monkeypatch.setattr(io, "_part_rows", rewriting)
        assert io._parsed_columns(path, 1) is None


@pytest.mark.usefixtures("split_everything")
class TestFailedParse:
    @pytest.fixture
    def failing_helpers(self, monkeypatch, request, tmp_path):
        """Helpers that fail: np.loadtxt raises a ValueError in any process
        but this one, or leaves it with exit code 1, or a helper raises once
        it has written all of its records, or leaves its last record out
        and exits 0.  In the last case the record array starts out holding
        the file's records, so only the check of each helper's size sees
        the missing one."""
        parent, loadtxt, write_part_rows = os.getpid(), np.loadtxt, io._write_part_rows
        empty = np.empty

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                if request.param == "raises":
                    raise ValueError("cannot parse")
                os._exit(1)
            return loadtxt(*args, **kwargs)

        def failing_once_written(*args):
            write_part_rows(*args)
            raise OSError("failed after the write")

        def writing_short(path, lo, hi, fd):
            write_part_rows(path, lo, hi, fd)
            os.ftruncate(fd, os.fstat(fd).st_size - io._CSV_ROW.itemsize)

        def filled(shape, dtype=float, *args, **kwargs):
            if dtype is io._CSV_ROW:
                return io._part_rows(tmp_path / "d.csv", 0, shape)
            return empty(shape, dtype, *args, **kwargs)

        if request.param == "after-writing":
            monkeypatch.setattr(io, "_write_part_rows", failing_once_written)
        elif request.param == "short":
            monkeypatch.setattr(io, "_write_part_rows", writing_short)
            monkeypatch.setattr(np, "empty", filled)
        else:
            monkeypatch.setattr(np, "loadtxt", failing)

    @staticmethod
    def outcome(path, threads):
        try:
            windows = io.read_distribution_windows(path, threads)
        except ConfigError as exc:
            return str(exc)
        return [window.tobytes() for window in windows]

    # a valid file, and one whose steps 0 and 2 pass the parse but not the
    # row loop's contiguity check, in three rows, so three parts
    @pytest.mark.parametrize("failing_helpers", ["raises", "exits", "after-writing", "short"],
                             indirect=True)
    @pytest.mark.parametrize("body", ["valid", "0,0,0,1.0\n2,0,0,0.5\n2,2,0,0.5\n"])
    def test_failing_helper_reads_as_the_row_loop_reads(self, tmp_path, forks, body,
                                                        failing_helpers):
        path = tmp_path / "d.csv"
        if body == "valid":
            io.write_window_csv(windows_of(DisorderMode.DYNAMICAL_SPATIAL), path)
        else:
            path.write_text("step,i,j,p\n" + body)
        want = self.outcome(path, 1)
        assert forks == []
        fds = open_fds()
        assert io._parsed_columns(path, 3) is None
        assert len(forks) == 2
        assert self.outcome(path, 3) == want
        assert open_fds() == fds
        assert_no_child_left()

    def test_error_in_this_process_kills_and_reaps_the_parsers(self, tmp_path, forks,
                                                               monkeypatch):
        parent = os.getpid()
        path = tmp_path / "d.csv"
        io.write_window_csv(windows_of(DisorderMode.DYNAMICAL_SPATIAL), path)

        def stalling(path, lo, hi):
            if os.getpid() != parent:
                time.sleep(60)  # a helper that would outlive the test
            raise RuntimeError("parent failed")

        monkeypatch.setattr(io, "_part_rows", stalling)
        fds = open_fds()
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="parent failed"):
            io._parsed_columns(path, 3)
        assert time.monotonic() - t0 < 30
        assert len(forks) == 2
        assert open_fds() == fds
        assert_no_child_left()
