"""Run manifests, result persistence (CSV, JSON) and SVG heatmaps.

Formats are deliberately boring: a flat `key = value` config file, one CSV
per artifact kind, a schema-versioned JSON result document, and a
hand-written SVG heatmap.  Everything is emitted with deterministic
formatting so identical runs produce byte-identical files.

The distributions CSV is the largest artifact: a long walk's is written by
up to `threads` processes, each formatting a contiguous range of steps with
the same function (see forkwrite), so the bytes are those of a serial
write.  It is also the one artifact read back (by `qwalk2d fit`), into a
run's per-step sublattice windows, so a row must have i = j = step (mod 2).
A file made of the lines the writer emits, or of those lines ending in
CR LF, is parsed by np.loadtxt from its path, on up to `threads`
processes, each parsing a contiguous range of its lines with the same
call (see forkwrite); any other file (one with a lone CR or an empty
line, say), any file that fails a parsing process, and
any file that changes during the parse, is read again by the row-by-row
parser.  Both hand their columns to one check (_checked_rows), which
words the first fault, so both paths accept the same files, with the
same values, and reject the same files with the same messages.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import re
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import Distribution2D
from .disorder import DisorderConfig
from .errors import ConfigError, InvariantViolationError, check_unit_total
from .evolve import scatter_window, zero_windows
from .forkwrite import forked, write_ranges

MANIFEST_SCHEMA_VERSION = 1
RESULT_SCHEMA_VERSION = 1

_ZETA_RE = re.compile(r"^([0-9]*\.?[0-9]+)?\s*pi\s*(?:/\s*([0-9]*\.?[0-9]+))?$")


def parse_zeta(text: str) -> float:
    """Parse a phase bound: a float literal or a pi expression like
    'pi', 'pi/2' or '0.5pi'."""
    text = text.strip().lower()
    m = _ZETA_RE.match(text)
    if m:
        coef = float(m.group(1)) if m.group(1) else 1.0
        div = float(m.group(2)) if m.group(2) else 1.0
        if div == 0.0:
            raise ConfigError(f"zeta value {text!r} divides by zero")
        return coef * math.pi / div
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse zeta value {text!r}") from None


def _setting(key: str, parse, default=None, flag_help: str | None = None):
    """A RunManifest field: its config-file key, the parser of its value,
    and the help of the command-line flag that sets it (None: no flag)."""
    return field(default=default, metadata={"key": key, "parse": parse, "help": flag_help})


def _parse_schema(text: str) -> int:
    if int(text) != MANIFEST_SCHEMA_VERSION:
        raise ConfigError(f"schema must be {MANIFEST_SCHEMA_VERSION}, got {text!r}")
    return MANIFEST_SCHEMA_VERSION


# a valid DisorderConfig, against which one manifest field at a time is checked
_VALID_CONFIG = {"mode": "none", "zeta": 0.0, "steps": 1, "realizations": 1, "master_seed": 0}


def _checked(name: str, parse):
    """parse, followed by DisorderConfig's own check of its field name."""
    def parse_and_check(text: str):
        value = parse(text)
        DisorderConfig(**{**_VALID_CONFIG, name: value})
        return value
    return parse_and_check


def _parse_threads(text: str) -> int:
    threads = int(text)
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    return threads


def _parse_out_dir(text: str) -> str:
    """A directory the config format holds as it is: no '#' (a comment),
    no line break and no surrounding whitespace, which a read would drop,
    and no NUL byte, which no path can hold."""
    if "#" in text or "\0" in text or text != text.strip() or len(text.splitlines()) > 1:
        raise ConfigError(f"out_dir {text!r} does not survive the config format: it holds "
                          "a '#', a NUL byte, a line break or surrounding whitespace")
    return text


def _parse_engine(text: str) -> str:
    if text not in ("trajectory", "exact"):
        raise ConfigError(f"unknown engine {text!r}")
    return text


@dataclass
class RunManifest:
    """Everything needed to reproduce a run.  Each setting is declared once,
    here; the config parser, manifest_to_text and the CLI flags derive from it.

    mode and seed carry no default on purpose; a run must state them
    explicitly.  fit_n_hi and fit_d_hi default to steps and steps - 6 when
    left unset.  engine and schema have no flag: the subcommand sets engine.
    mode, zeta, steps, realizations and seed are checked as DisorderConfig
    checks them, and threads as run_ensemble does, when parsed, so a bad
    value in a file is an error naming the file.  An out_dir that the
    config format would not read back as written is rejected, so a run's
    manifest.cfg names the directory the run wrote to.
    """

    schema_version: int = _setting("schema", _parse_schema, MANIFEST_SCHEMA_VERSION)
    mode: str | None = _setting(
        "mode", _checked("mode", str), None,
        "disorder mode: none, dynamical-spatial, static-spatial, dynamical-uniform")
    zeta: float = _setting(
        "zeta", _checked("zeta", parse_zeta), math.pi,
        "phase bound in radians; accepts pi expressions like pi/2")
    steps: int = _setting("steps", _checked("steps", int), 20, "number of walk steps N")
    realizations: int = _setting(
        "realizations", _checked("realizations", int), 500, "ensemble size R")
    seed: int | None = _setting(
        "seed", _checked("master_seed", int), None,
        "64-bit master seed (required, never defaulted)")
    engine: str = _setting("engine", _parse_engine, "trajectory")
    threads: int | None = _setting(
        "threads", _parse_threads, None, "worker count; 1 is the serial reference path")
    out_dir: str = _setting("out_dir", _parse_out_dir, "qwalk2d-out", "artifact directory")
    fit_n_lo: int = _setting("fit.n_lo", int, 10, "scaling fit window start (step index)")
    fit_n_hi: int | None = _setting("fit.n_hi", int, None, "scaling fit window end (default: steps)")
    fit_d_lo: int = _setting("fit.d_lo", int, 2, "localization fit window start (|coordinate|)")
    fit_d_hi: int | None = _setting(
        "fit.d_hi", int, None, "localization fit window end (default: steps - 6)")

    def disorder_config(self) -> DisorderConfig:
        if self.mode is None:
            raise ConfigError("mode is required (none, dynamical-spatial, static-spatial, dynamical-uniform)")
        if self.seed is None:
            raise ConfigError("seed is required; entropy is never pulled silently")
        return DisorderConfig(mode=self.mode, zeta=self.zeta, steps=self.steps,
                              realizations=self.realizations, master_seed=self.seed)

    def resolved_fit_windows(self) -> tuple[int, int, int, int]:
        n_hi = self.steps if self.fit_n_hi is None else self.fit_n_hi
        d_hi = self.steps - 6 if self.fit_d_hi is None else self.fit_d_hi
        return self.fit_n_lo, n_hi, self.fit_d_lo, d_hi


# config-file key -> RunManifest field
_SETTINGS = {f.metadata["key"]: f for f in fields(RunManifest)}


def parse_manifest_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        pairs[key] = value
    return pairs


def manifest_from_pairs(pairs: dict[str, str]) -> RunManifest:
    manifest = RunManifest()
    for key, raw in pairs.items():
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        setting = _SETTINGS[key]
        try:
            setattr(manifest, setting.name, setting.metadata["parse"](raw))
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
    return manifest


def manifest_to_text(manifest: RunManifest) -> str:
    """Render a manifest in the config file format (lossless round-trip)."""
    lines = []
    for setting in fields(RunManifest):
        value = getattr(manifest, setting.name)
        if value is None:
            continue
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{setting.metadata['key']} = {rendered}")
    return "\n".join(lines) + "\n"


def read_manifest_pairs(path) -> dict[str, str]:
    """The `key = value` pairs of a config file (see parse_manifest_text).
    Each value is parsed here, so a bad one is an error naming the file
    even when a flag would override it."""
    try:
        pairs = parse_manifest_text(Path(path).read_text())
        manifest_from_pairs(pairs)
        return pairs
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def read_manifest(path) -> RunManifest:
    return manifest_from_pairs(read_manifest_pairs(path))


def write_manifest(manifest: RunManifest, path) -> None:
    Path(path).write_text(manifest_to_text(manifest))


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

_CSV_HEADER = "step,i,j,p"
# the fewest rows worth a process of their own, to write or to parse: below
# 2 * MIN_PART_ROWS one process handles the file (see _part_count).  Forked
# in two, the window CSV of a dynamical-spatial walk was written slower at
# N = 20 (3,311 rows: 9.2 against 7.7-8.1 ms serial), about as fast at
# N = 25 (6,201 rows) and faster from N = 30 (10,416 rows: 17.4-17.9
# against 22.7-23.6 ms, in 22-24 of 25 alternated samples).  Parsed from
# its path in two parts, it was faster at N = 30 in 3-11 of 30 alternated
# samples (four sets), at N = 35 (16,206 rows) in 3-24, at N = 40 (23,821
# rows) in 11-30 and at N = 50 (45,526 rows) in 19-30, so the two-part cut
# at 20,000 rows lies where the parts come out even.  All measured on a
# 2-vCPU VM whose second vCPU other work may hold
MIN_PART_ROWS = 10_000


def write_distribution_csv(dists, path, threads: int = 1) -> None:
    """Write an iterable of site distributions as rows `step,i,j,p`,
    omitting zero sites, on up to threads processes (see _write_grids)."""
    _write_grids(((d.step, d.probs, 1, d.half_width) for d in dists), path, threads)


def write_window_csv(windows, path, threads: int = 1) -> None:
    """Write per-step sublattice windows (see evolve.WalkResult) as the rows
    write_distribution_csv writes for their dense grids, byte for byte, on
    up to threads processes: window index u ascending is i = 2u - n
    ascending."""
    _write_grids(((n, window, 2, n) for n, window in enumerate(windows)), path, threads)


def _write_grids(grids, path, threads: int) -> None:
    """Write (step, grid, stride, offset) entries as rows `step,i,j,p`, one
    per positive p = grid[u, v], at i = stride u - offset and
    j = stride v - offset, on up to threads processes.

    Every grid must sum to 1 (see check_unit_total), so an empty (all-zero)
    distribution is rejected outright.  All of them are checked before the
    file is opened, so a rejected list writes no file.  The steps are then
    cut into contiguous ranges of about equal row count (_range_bounds),
    and forkwrite.write_ranges writes the first range in this process and
    each later one in a forked helper, one step at a time, in step order.
    Each step's rows come from _step_rows, so the bytes do not depend on
    the range count.
    """
    grids = list(grids)  # read twice: an iterator would be spent by the checks
    for step, grid, _, _ in grids:
        check_unit_total(grid.sum(), f"distribution sum at step {step}")
    bounds = _range_bounds(grids, threads)
    with open(path, "w") as handle:
        handle.write(_CSV_HEADER + "\n")
        write_ranges(handle, grids, bounds, _step_rows)


def _part_count(rows: int, threads: int) -> int:
    """How many processes write or parse a file of rows rows, given up to
    threads: min(threads, rows // MIN_PART_ROWS), at least 1, and 1 where
    os.fork is missing."""
    return max(1, min(threads, rows // MIN_PART_ROWS)) if hasattr(os, "fork") else 1


def _range_bounds(grids, threads: int) -> list[int]:
    """0, the first step of each later range and the step count, for
    _part_count contiguous ranges of about equal row count.  Rows are
    counted as grid sizes, (n + 1)^2 at window step n: an upper bound
    where zero sites are omitted.  Empty ranges are dropped, so there may
    be fewer."""
    ends = np.cumsum([grid.size for _, grid, _, _ in grids])  # rows of steps 0..n
    total = int(ends[-1]) if len(grids) else 0
    parts = _part_count(total, threads)
    cuts = np.searchsorted(ends, total * np.arange(1, parts) / parts, side="right")
    return [0, *sorted(set(cuts.tolist()) - {0, len(grids)}), len(grids)]


def _step_rows(entry) -> str:
    """The rows of one (step, grid, stride, offset) entry, each ending in a
    newline.  p is float.__repr__ of the value, formatted at C level by the
    repr of the step's value list; each row's "step,i," and "j," labels
    are built once per step."""
    step, grid, stride, offset = entry
    uu, vv = np.nonzero(grid > 0.0)
    values = repr(grid[uu, vv].astype(float, copy=False).tolist())[1:-1].split(", ")
    heads = [f"{step},{stride * u - offset}," for u in range(grid.shape[0])]
    tails = [f"{stride * v - offset}," for v in range(grid.shape[1])]
    labels = map(operator.add, map(heads.__getitem__, uu.tolist()),
                 map(tails.__getitem__, vv.tolist()))
    return "\n".join(map(operator.add, labels, values)) + "\n"


_CSV_ROW = np.dtype([("step", "i8"), ("i", "i8"), ("j", "i8"), ("p", "f8")])
# the bytes of a file body the fast path parses: everything the writer emits,
# plus spaces, tabs and CRs.  np.loadtxt reads some other bytes where int()
# and float() do not (\x1c-\x1f as spaces, and non-ASCII bytes as latin-1
# even where they are not valid text), so a file holding any other byte is
# read row by row.  A path's text mode reads CR LF as LF but ends a line at
# a lone CR, so _body_lines takes a CR only right before an LF.
_FAST_BYTES = b"0123456789+-.eE, \t\r\n"
# what is left of a file with the header and a body of _FAST_BYTES when the
# _FAST_BYTES are taken out: the header's letters
_HEADER_LETTERS = _CSV_HEADER.encode().translate(None, _FAST_BYTES)
# np.loadtxt opens a str path through numpy's DataSource, which reads a file
# whose name ends in one of these as compressed, so such a file is read row
# by row.  DataSource also takes a relative path that parses as a URL (such
# as x://host/d.csv) for a remote file, which an absolute path never does.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _parsed_columns(path, threads: int = 1):
    """The step, i, j and p columns of the file at path, parsed at C speed
    in up to threads processes and checked by _checked_rows, which words a
    faulty file's error (row k is on line k + 2: such a file has no empty
    line); None when the file (_body_lines), the parser or a parsing
    process fails, or when the file changes during the parse (_stamp).

    The body's lines are cut into _part_count contiguous ranges of about
    equal length.  This process parses the first range with _part_rows,
    as a forked helper parses each later one, and reads each helper's
    records (see forkwrite) straight into their slice of one array.
    """
    stamp = _stamp(path)
    lines = _body_lines(path)
    if not lines:
        return None
    parts = _part_count(lines, threads)
    bounds = [lines * k // parts for k in range(parts + 1)]
    ranges = list(zip(bounds[1:-1], bounds[2:]))
    jobs = [partial(_write_part_rows, path, lo, hi) for lo, hi in ranges]
    try:
        # a file of many short lines that are not rows may ask for more
        # than can be allocated, a MemoryError
        rows = np.empty(lines, _CSV_ROW)
        raw, size = rows.view(np.uint8), _CSV_ROW.itemsize
        with forked(jobs) as helpers:
            # a short part is the wrong size for its slice, a ValueError
            raw[:bounds[1] * size] = _part_rows(path, 0, bounds[1]).view(np.uint8)
            for (lo, hi), (status, out) in zip(ranges, helpers):
                out.seek(0)
                if status != 0 or out.readinto(raw[lo * size:hi * size]) != (hi - lo) * size:
                    return None
        if _stamp(path) != stamp:
            return None
    except (ValueError, OSError, MemoryError):
        return None
    return _checked_rows(path, *(rows[name] for name in _CSV_ROW.names), range(2, lines + 2))


def _stamp(path) -> tuple[int, int, int, int]:
    """The size, mtime, inode and ctime of the file at path: a file moved
    into place keeps its mtime but not its inode, and utime sets no ctime."""
    stat = os.stat(path)
    return stat.st_size, stat.st_mtime_ns, stat.st_ino, stat.st_ctime_ns


def _body_lines(path) -> int | None:
    """The number of lines after the header of the file at path, when
    np.loadtxt, reading the file from its path, parses the lines that
    _checked_columns reads: the header line is `step,i,j,p`, every byte
    after it is one of _FAST_BYTES, every CR comes right before an LF, no
    line is empty and the last one ends in a line break (max_rows counts
    no empty line, while skiprows does), and the file's name has none of
    _COMPRESSED_SUFFIXES.  None for any other file."""
    if os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES:
        return None
    data = Path(path).read_bytes()
    header = _CSV_HEADER.encode()
    if (not data.startswith((header + b"\n", header + b"\r\n")) or not data.endswith(b"\n")
            or b"\n\n" in data or data.translate(None, _FAST_BYTES) != _HEADER_LETTERS):
        return None
    # one memchr pass spares a file with no CR the slower counts
    if b"\r" in data and (data.count(b"\r") != data.count(b"\r\n") or b"\n\r\n" in data):
        return None
    return data.count(b"\n") - 1


def _part_rows(path, lo: int, hi: int) -> np.ndarray:
    """The records np.loadtxt parses from the lines lo to hi - 1 after the
    header of the file at path, named by its absolute path (see
    _COMPRESSED_SUFFIXES)."""
    return np.loadtxt(os.path.abspath(path), delimiter=",", comments=None, quotechar=None, ndmin=1,
                      dtype=_CSV_ROW, skiprows=1 + lo, max_rows=hi - lo, encoding="ascii")


def _write_part_rows(path, lo: int, hi: int, fd: int) -> None:
    """Write the raw records of _part_rows(path, lo, hi) to the file descriptor fd."""
    with open(fd, "wb", closefd=False) as out:
        out.write(_part_rows(path, lo, hi).data)


def _repeats(s, u, v) -> np.ndarray:
    """Whether each row's key (s, u, v) is on an earlier row.  Keys that are
    each lexically greater than the one before, as the writer emits them,
    do not repeat; other keys are sorted stably, which keeps equal keys in
    file order, and every one but the first of equal keys is a repeat."""
    later = v[1:] > v[:-1]
    for a in (u, s):
        later = (a[1:] > a[:-1]) | (a[1:] == a[:-1]) & later
    repeats = np.zeros(len(s), bool)
    if not later.all():
        order = np.lexsort((v, u, s))
        s, u, v = s[order], u[order], v[order]
        repeats[order[1:]] = (s[1:] == s[:-1]) & (u[1:] == u[:-1]) & (v[1:] == v[:-1])
    return repeats


def _checked_rows(path, step, i, j, p, lines, error=None):
    """The columns step, i, j and p, the keys as int64, of a distributions
    CSV whose row k is on line lines[k], once every rule holds; the keys
    may also be Python ints of any size, in object arrays.  Otherwise a
    ConfigError names the file and the line of the first faulty row, for
    the first rule it breaks: p >= 0, a key not on an earlier row, a site
    inside |i|, |j| <= step, then on i = j = step (mod 2).  error, met
    after the last row, comes next, then the file's rules: some row, all
    steps within 64 bits and contiguous from 0."""
    negative, repeated = p < 0, _repeats(step, i, j)
    # a step below 0 has an empty light cone; from 0 up, -step cannot overflow
    outside = (step < 0) | (i > step) | (j > step) | (i < -step) | (j < -step)
    faulty = negative | repeated | outside | (((i ^ step) | (j ^ step)) & 1).astype(bool)
    if faulty.any():
        k = int(faulty.argmax())
        n, site = int(step[k]), f"site ({int(i[k])}, {int(j[k])})"
        fault = (f"negative p = {float(p[k])!r}" if negative[k] else
                 f"repeats step {n}, {site}" if repeated[k] else
                 f"{site} lies outside |i|, |j| <= step {n}" if outside[k] else
                 f"{site} lies off i = j = step (mod 2) for step {n}")
        raise ConfigError(f"{path}: line {lines[k]}: {fault}")
    if error is not None:
        raise error
    if not len(step):
        raise ConfigError(f"{path}: no data rows")
    if step.max() > np.iinfo(np.int64).max:
        raise ConfigError(f"{path}: a step does not fit in 64 bits")
    # every step is >= 0 here, and steps 0..last take at least last + 1 rows
    if step.max() >= len(step) or not np.bincount(step.astype(np.int64, copy=False)).all():
        raise ConfigError(f"{path}: steps are not contiguous from 0: {np.unique(step).tolist()}")
    return (*(a.astype(np.int64, copy=False) for a in (step, i, j)), p)


def _checked_columns(path):
    """The columns of read_distribution_csv, parsed row by row up to the
    first row that does not parse; _checked_rows words the first fault of
    the rows before it, or else the parse error."""
    rows, error = [], None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header != _CSV_HEADER.split(","):
                raise ConfigError(f"{path}: expected header {_CSV_HEADER}, got {header}")
            for row in reader:
                if not row:
                    continue  # blank line
                try:
                    step, i, j, p = row
                    rows.append((int(step), int(i), int(j), float(p), reader.line_num))
                except ValueError:
                    error = ConfigError(f"{path}: line {reader.line_num}: expected integers "
                                        f"step,i,j and a float p, got {row}")
                    break
        except UnicodeDecodeError as exc:
            error = ConfigError(f"{path}: not {exc.encoding} text ({exc.reason})")
        except csv.Error as exc:  # a field past csv's size limit, say
            error = ConfigError(f"{path}: line {reader.line_num}: {exc}")
    step, i, j, p, lines = np.array(rows, dtype=object).reshape(-1, 5).T
    return _checked_rows(path, step, i, j, p.astype(float), lines, error)


def read_distribution_windows(path, threads: int = 1) -> list[np.ndarray]:
    """The per-step sublattice windows of a distributions CSV, laid out as
    a run's (see evolve.zero_windows), from step 0 to the last.

    Rows `step,i,j,p` follow the header `step,i,j,p`; blank lines are
    skipped.  Steps must run from 0 with none missing, each (step, i, j)
    may appear once, where a walk can be: |i|, |j| <= step and i = j =
    step (mod 2); no p may be negative.  A ConfigError names the file, and
    the line of the first bad row (_checked_rows); a file as the writer
    emits it is parsed on up to threads processes (_parsed_columns).
    """
    columns = _parsed_columns(path, threads) or _checked_columns(path)
    try:
        windows = zero_windows(int(columns[0].max()), columns)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for n, window in enumerate(windows):
        check_unit_total(window.sum(), f"{path}: distribution sum at step {n}")
    return windows


def read_distribution_csv(path) -> list[Distribution2D]:
    """The distributions of read_distribution_windows, each on the grid of
    half width the last step, as a run's."""
    windows = read_distribution_windows(path)
    return [scatter_window(window, len(windows) - 1) for window in windows]


def write_variance_csv(variances, stderrs, path) -> None:
    """Write the variance series as rows `n,V,stderr` (stderr blank if unknown)."""
    lines = ["n,V,stderr"]
    for n, v in enumerate(np.asarray(variances, dtype=float)):
        if stderrs is None:
            err = ""
        else:
            err = repr(float(stderrs[n]))
        lines.append(f"{n},{float(v)!r},{err}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# JSON result document
# ---------------------------------------------------------------------------

def _fit_to_dict(fit) -> dict | None:
    """A fit dataclass as a dict of its fields; None and error dicts pass through."""
    if fit is None or isinstance(fit, dict):
        return fit
    return asdict(fit)


def build_result_document(*, engine: str, config: DisorderConfig | None,
                          variances, stderrs=None,
                          scaling=None, localization_x=None, localization_y=None) -> dict:
    """Assemble the schema-versioned result document.

    Wall-time and worker counts are intentionally not part of the document:
    identical (manifest, seed) runs must serialize identically.
    """
    if config is None:
        config_doc = None
    else:
        config_doc = {"mode": config.mode.value, "zeta": config.zeta,
                      "steps": config.steps, "realizations": config.realizations,
                      "seed": config.master_seed}
    series = []
    for n, v in enumerate(np.asarray(variances, dtype=float)):
        err = None if stderrs is None else float(stderrs[n])
        series.append({"n": n, "V": float(v), "stderr": err})
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "engine": engine,
        "config": config_doc,
        "variance_series": series,
        "fits": {
            "scaling": _fit_to_dict(scaling),
            "localization": {
                "x": _fit_to_dict(localization_x),
                "y": _fit_to_dict(localization_y),
            },
        },
    }


def write_result_json(document: dict, path) -> None:
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# SVG heatmap
# ---------------------------------------------------------------------------

_RAMP = [
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
]


def _ramp_colors(t: np.ndarray) -> list[str]:
    """The '#rrggbb' color of each t, clipped to [0, 1], on the ramp: linear
    between the stops t0 < t <= t1 (the first stop for t = 0), each channel
    a + w (b - a) rounded half to even, as Python's round does."""
    ends = np.array([stop for stop, _ in _RAMP])
    rgb = np.array([color for _, color in _RAMP], dtype=float)
    t = np.clip(t, 0.0, 1.0)
    hi = np.maximum(np.searchsorted(ends, t, side="left"), 1)
    w = (t - ends[hi - 1]) / (ends[hi] - ends[hi - 1])
    a, b = rgb[hi - 1], rgb[hi]
    channels = np.rint(a + w[:, np.newaxis] * (b - a)).astype(np.int64)
    packed = channels @ np.array([1 << 16, 1 << 8, 1])
    return ["#%06x" % color for color in packed.tolist()]


def render_heatmap_svg(dist: Distribution2D, path, log_scale: bool = False) -> None:
    """Render p(i, j) as a colored grid, one rect per occupied site.

    Linear scale maps [0, max p] onto the color ramp; log scale spans from
    the smallest positive probability up to the maximum.  The x axis is i
    (rightward), the y axis is j (upward).  A grid whose maximum is not
    finite and positive (all zero, NaN or inf) raises InvariantViolationError.
    """
    h = dist.half_width
    size = dist.probs.shape[0]
    cell = 12
    margin = 34
    width = 2 * margin + size * cell
    height = 2 * margin + size * cell
    pmax = float(dist.probs.max())
    if not (math.isfinite(pmax) and pmax > 0.0):
        raise InvariantViolationError(
            f"cannot render step {dist.step}: its largest probability is {pmax!r}, "
            "not finite and positive")
    ii, jj = np.nonzero(dist.probs > 0.0)
    positive = dist.probs[ii, jj]
    if log_scale:
        # math.log10 site by site: np.log10 need not round as libm does
        logs = np.array([math.log10(p) for p in positive.tolist()])
        lo, hi = math.log10(float(positive.min())), math.log10(pmax)
        span = hi - lo
        t = np.ones(len(logs)) if span == 0.0 else (logs - lo) / span
    else:
        t = positive / pmax

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{size * cell}" height="{size * cell}" '
        f'fill="#202030"/>',
    ]
    for u, v, color in zip(ii.tolist(), jj.tolist(), _ramp_colors(t)):
        x = margin + u * cell
        y = margin + (size - 1 - v) * cell
        parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{color}"/>')
    scale_name = "log" if log_scale else "linear"
    parts.append(
        f'<text x="{margin}" y="{margin - 10}" font-family="monospace" font-size="12">'
        f"p(i,j) at step {dist.step}, {scale_name} scale, max={pmax:.3e}</text>"
    )
    parts.append(
        f'<text x="{margin + size * cell // 2}" y="{height - 8}" font-family="monospace" '
        f'font-size="12" text-anchor="middle">i from {-h} to {h}</text>'
    )
    parts.append(
        f'<text x="12" y="{margin + size * cell // 2}" font-family="monospace" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 12 {margin + size * cell // 2})">j from {-h} to {h}</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
