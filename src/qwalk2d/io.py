"""Run manifests, result persistence (CSV, JSON) and SVG heatmaps.

Formats are deliberately boring: a flat `key = value` config file, one CSV
per artifact kind, a schema-versioned JSON result document, and a
hand-written SVG heatmap.  Everything is emitted with deterministic
formatting so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import Distribution2D
from .disorder import DisorderConfig
from .errors import ConfigError, InvariantViolationError, check_unit_total

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
    value in a file is an error naming the file.
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
    out_dir: str = _setting("out_dir", str, "qwalk2d-out", "artifact directory")
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

def write_distribution_csv(dists, path) -> None:
    """Write site distributions as rows `step,i,j,p`, omitting zero sites.

    Every distribution must sum to 1 (see check_unit_total), so an empty
    (all-zero) distribution is rejected outright.
    """
    lines = ["step,i,j,p"]
    for dist in dists:
        check_unit_total(dist.probs.sum(), f"distribution sum at step {dist.step}")
        h = dist.half_width
        ii, jj = np.nonzero(dist.probs > 0.0)
        for u, v in zip(ii.tolist(), jj.tolist()):
            lines.append(f"{dist.step},{u - h},{v - h},{float(dist.probs[u, v])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_distribution_csv(path) -> list[Distribution2D]:
    """Read distributions back; steps must be contiguous from 0, each
    (step, i, j) may appear once with |i|, |j| <= step, where a walk can
    be, and no p may be negative."""
    rows = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header != ["step", "i", "j", "p"]:
                raise ConfigError(f"{path}: expected header step,i,j,p, got {header}")
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
    half_width = max(int(np.abs(keys[:, 1:]).max()), 1)
    size = 2 * half_width + 1
    grids = np.zeros((len(steps), size, size))
    grids[keys[:, 0], keys[:, 1] + half_width, keys[:, 2] + half_width] = \
        np.fromiter(rows.values(), float, len(rows))
    dists = []
    for step in range(len(steps)):
        check_unit_total(grids[step].sum(), f"{path}: distribution sum at step {step}")
        dists.append(Distribution2D(grids[step], half_width, step))
    return dists


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
    (rightward), the y axis is j (upward).
    """
    h = dist.half_width
    size = dist.probs.shape[0]
    cell = 12
    margin = 34
    width = 2 * margin + size * cell
    height = 2 * margin + size * cell
    pmax = float(dist.probs.max())
    if pmax <= 0.0:
        raise InvariantViolationError("cannot render an empty distribution")
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
