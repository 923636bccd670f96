"""Run manifests, result persistence (CSV, JSON) and SVG heatmaps.

Formats are deliberately boring: a flat `key = value` config file, one CSV
per artifact kind, a schema-versioned JSON result document, and a
hand-written SVG heatmap.  Everything is emitted with deterministic
formatting so identical runs produce byte-identical files.

The distributions CSV is the largest artifact: a long walk's is written by
up to `threads` processes, each formatting a contiguous range of steps with
the same function (see forkwrite), so the bytes are those of a serial
write.  It is also the one artifact read back (by `qwalk2d fit`).
A file made of the bytes the writer emits is parsed by np.loadtxt, on up
to `threads` processes, each parsing whole lines of a contiguous part of
the file with the same call (see forkwrite), and checked once on the
joined columns; any other file, and any file that fails a check or a
parsing process, is read again by the row-by-row parser, which alone words
a bad row's error.  So both paths accept the same files, with the same
values, and reject the same files with the same messages.
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
from io import BytesIO
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import Distribution2D, grid_stack
from .disorder import DisorderConfig
from .errors import ConfigError, InvariantViolationError, check_unit_total
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
# the fewest rows (counted as grid sizes) worth a CSV-writing process of
# their own: below 2 * MIN_PART_ROWS one process writes the file.  Forked
# in two, the window CSV of a dynamical-spatial walk was written slower at
# N = 20 (3,311 rows: 9.2 against 7.7-8.1 ms serial), about as fast at
# N = 25 (6,201 rows) and faster from N = 30 (10,416 rows: 17.4-17.9
# against 22.7-23.6 ms, in 22-24 of 25 alternated samples) on a 2-vCPU VM
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


def _range_bounds(grids, threads: int) -> list[int]:
    """0, the first step of each later range and the step count, for up to
    min(threads, rows // MIN_PART_ROWS) contiguous ranges of about equal
    row count, or one range where os.fork is missing.  Rows are counted as
    grid sizes, (n + 1)^2 at window step n: an upper bound where zero
    sites are omitted.  Empty ranges are dropped, so there may be fewer."""
    ends = np.cumsum([grid.size for _, grid, _, _ in grids])  # rows of steps 0..n
    total = int(ends[-1]) if len(grids) else 0
    parts = min(threads, total // MIN_PART_ROWS) if hasattr(os, "fork") else 1
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
# plus spaces, tabs and CRLF.  np.loadtxt reads some other bytes where int()
# and float() do not (\x1c-\x1f as spaces, and non-ASCII bytes as latin-1
# even where they are not valid text), so a file holding any other byte is
# read row by row.
_FAST_BYTES = b"0123456789+-.eE, \t\r\n"
# what is left of a file with the header and a body of _FAST_BYTES when the
# _FAST_BYTES are taken out: the header's letters
_HEADER_LETTERS = _CSV_HEADER.encode().translate(None, _FAST_BYTES)
# lines np.loadtxt skips as blank: empty, or a lone carriage return
_BLANK_LINES = re.compile(rb"(?:\r?\n)*\r?")
# the fewest body bytes (the bytes after the header) worth a parsing process
# of their own: below 2 * MIN_PARSE_BYTES one process parses the file.
# Parsed in two, a dynamical-spatial walk's CSV (about 31 bytes a row) was
# read slower at N = 30 (324 kB: faster in 2 of 30 alternated samples),
# about as fast at N = 35 (507 kB: 17 of 30) and faster from N = 40
# (748 kB: 23 of 30; 2.4 MB at N = 60: 28 of 30) on a 2-vCPU VM, and
# slower up to N = 60 in sets where the second vCPU was held by other work.
# 640 kB is about the writer's 2 * MIN_PART_ROWS rows, counted without a
# pass over the file
MIN_PARSE_BYTES = 320_000


def _parsed_columns(path, threads: int = 1):
    """The step, i, j and p columns of a file that _checked_columns would
    accept and whose rows are in the writer's (step, i, j) order, parsed at
    C speed in up to threads processes and checked on whole arrays; None
    when the header, a byte, the parser, a parsing process, the order or
    any check fails.  It words no error: the caller then runs
    _checked_columns, which does.

    The body is cut into parts just after line breaks (_part_cuts), so
    every line falls whole into one part.  A forked helper parses each
    part but the last with _part_rows, as this process parses the last,
    and hands back the raw records (see forkwrite); this process joins
    the parts in order and checks the whole columns once.
    """
    data = Path(path).read_bytes()
    start = data.find(b"\n") + 1
    if (not start or data[:start - 1].rstrip(b"\r") != _CSV_HEADER.encode()
            or data.translate(None, _FAST_BYTES) != _HEADER_LETTERS):
        return None
    cuts = _part_cuts(data, start, threads)
    jobs = [partial(_write_part_rows, data, lo, hi) for lo, hi in zip(cuts, cuts[1:-1])]
    try:
        with forked(jobs) as helpers:
            last = _part_rows(data, cuts[-2], cuts[-1])
            parts = []
            for status, out in helpers:
                if status != 0:
                    return None
                out.seek(0)
                parts.append(np.fromfile(out, _CSV_ROW))
    except (ValueError, OSError):
        return None
    rows = np.concatenate([*parts, last]) if parts else last
    if not rows.size:
        return None
    step, i, j, p = (rows[name] for name in _CSV_ROW.names)
    if step.min() != 0 or (p < 0).any():
        return None
    # steps are >= 0 from here on, so -step cannot overflow (np.abs can)
    if ((i < -step) | (i > step) | (j < -step) | (j > step)).any():
        return None
    # the writer emits rows in key order, which also rules out a repeated key
    if not _strictly_increasing(step, i, j):
        return None
    if step[-1] != np.count_nonzero(step[1:] != step[:-1]):  # a step is missing
        return None
    return step, i, j, p


def _part_cuts(data: bytes, start: int, threads: int) -> list[int]:
    """start, the first byte of each later part and len(data), for up to
    min(threads, body bytes // MIN_PARSE_BYTES) parts of about equal size
    of the body data[start:], or one part where os.fork is missing.  Each
    later part starts just after the first line break at or after its
    share of the body, so a part may be empty."""
    size = len(data) - start
    parts = min(threads, size // MIN_PARSE_BYTES) if hasattr(os, "fork") else 1
    return [start, *(data.find(b"\n", start + k * size // parts) + 1 or len(data)
                     for k in range(1, parts)), len(data)]


def _part_rows(data: bytes, lo: int, hi: int) -> np.ndarray:
    """The records np.loadtxt parses from the lines data[lo:hi]; none,
    without loadtxt's empty-input warning, where every line is blank.
    The last part is read in place, as a BytesIO shares the buffer of the
    bytes it is made from; any other part is copied out first."""
    if _BLANK_LINES.fullmatch(data, lo, hi):
        return np.empty(0, _CSV_ROW)
    if hi < len(data):
        data, lo = data[lo:hi], 0
    stream = BytesIO(data)
    stream.seek(lo)
    return np.loadtxt(stream, delimiter=",", comments=None, quotechar=None, ndmin=1,
                      dtype=_CSV_ROW)


def _write_part_rows(data: bytes, lo: int, hi: int, fd: int) -> None:
    """Write the raw records of _part_rows(data, lo, hi) to the file descriptor fd."""
    with open(fd, "wb", closefd=False) as out:
        out.write(_part_rows(data, lo, hi).data)


def _strictly_increasing(s, u, v) -> bool:
    """Whether each row's key (s, u, v) is lexically greater than the one before."""
    later = v[1:] > v[:-1]
    for a in (u, s):
        later = (a[1:] > a[:-1]) | (a[1:] == a[:-1]) & later
    return bool(later.all())


def _checked_columns(path):
    """The columns of read_distribution_csv, parsed and checked row by row;
    it words the first fault it meets as a ConfigError naming the file and
    the line."""
    rows = {}
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
                    step, i, j, p = int(step), int(i), int(j), float(p)
                except ValueError:
                    raise ConfigError(
                        f"{path}: line {reader.line_num}: expected integers step,i,j "
                        f"and a float p, got {row}"
                    ) from None
                key = (step, i, j)
                if p < 0:
                    raise ConfigError(f"{path}: line {reader.line_num}: negative p = {p!r}")
                if key in rows:
                    raise ConfigError(
                        f"{path}: line {reader.line_num}: repeats step {step}, site ({i}, {j})"
                    )
                if abs(i) > step or abs(j) > step:
                    raise ConfigError(
                        f"{path}: line {reader.line_num}: site ({i}, {j}) "
                        f"lies outside |i|, |j| <= step {step}"
                    )
                rows[key] = p
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    try:
        keys = np.fromiter(chain.from_iterable(rows), np.int64, 3 * len(rows)).reshape(-1, 3)
    except OverflowError:
        raise ConfigError(f"{path}: a step does not fit in 64 bits") from None
    steps = np.unique(keys[:, 0])
    if not np.array_equal(steps, np.arange(len(steps))):
        raise ConfigError(f"{path}: steps are not contiguous from 0: {steps.tolist()}")
    return (*keys.T, np.fromiter(rows.values(), float, len(rows)))


def read_distribution_stack(path, threads: int = 1) -> tuple[np.ndarray, int]:
    """The (steps, L, L) grid stack of a distributions CSV, and its half
    width h (the largest |i| or |j|, at least 1; L = 2 h + 1).

    Rows `step,i,j,p` follow the header `step,i,j,p`.  Blank lines are
    skipped; there are no comments.  Steps must be contiguous from 0, each
    (step, i, j) may appear once with |i|, |j| <= step, where a walk can
    be, and no p may be negative.  A ConfigError names the file, and the
    line of a bad row.  A valid file is parsed once at C speed, on up to
    threads processes (_parsed_columns); only a file that fails there is
    read again row by row, which words the error.
    """
    columns = _parsed_columns(path, threads)
    step, i, j, p = _checked_columns(path) if columns is None else columns
    half_width = max(int(np.abs(i).max()), int(np.abs(j).max()), 1)
    try:
        grids = grid_stack(int(step.max()) + 1, half_width)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    grids[step, i + half_width, j + half_width] = p
    for n, grid in enumerate(grids):
        check_unit_total(grid.sum(), f"{path}: distribution sum at step {n}")
    return grids, half_width


def read_distribution_csv(path) -> list[Distribution2D]:
    """The distributions of read_distribution_stack, one per step, each a
    view of its stack."""
    grids, half_width = read_distribution_stack(path)
    return [Distribution2D(grid, half_width, n) for n, grid in enumerate(grids)]


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


def _ramp_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(_RAMP, _RAMP[1:]):
        if t <= t1:
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(round(a + w * (b - a)) for a, b in zip(c0, c1))
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#{:02x}{:02x}{:02x}".format(*_RAMP[-1][1])


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
    positive = dist.probs[dist.probs > 0.0]
    pmin = float(positive.min())
    if log_scale:
        lo, hi = math.log10(pmin), math.log10(pmax)
        span = hi - lo

        def scale(p):
            return 1.0 if span == 0.0 else (math.log10(p) - lo) / span
    else:
        def scale(p):
            return p / pmax

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{size * cell}" height="{size * cell}" '
        f'fill="#202030"/>',
    ]
    ii, jj = np.nonzero(dist.probs > 0.0)
    for u, v in zip(ii.tolist(), jj.tolist()):
        color = _ramp_color(scale(float(dist.probs[u, v])))
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
