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
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import Distribution2D, LocalizationFit, ScalingFit
from .disorder import DisorderConfig, DisorderMode
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
        return coef * math.pi / div
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse zeta value {text!r}") from None


@dataclass
class RunManifest:
    """Everything needed to reproduce a run.

    mode and seed carry no default on purpose; a run must state them
    explicitly.  fit_n_hi and fit_d_hi default to steps and steps - 6 when
    left unset.
    """

    schema_version: int = MANIFEST_SCHEMA_VERSION
    mode: str | None = None
    zeta: float = math.pi
    steps: int = 20
    realizations: int = 500
    seed: int | None = None
    engine: str = "trajectory"
    threads: int | None = None
    out_dir: str = "qwalk2d-out"
    fit_n_lo: int = 10
    fit_n_hi: int | None = None
    fit_d_lo: int = 2
    fit_d_hi: int | None = None

    def disorder_config(self) -> DisorderConfig:
        if self.mode is None:
            raise ConfigError("mode is required (none, dynamical-spatial, static-spatial, dynamical-uniform)")
        if self.seed is None:
            raise ConfigError("seed is required; entropy is never pulled silently")
        try:
            mode = DisorderMode(self.mode)
        except ValueError:
            raise ConfigError(f"unknown mode {self.mode!r}") from None
        return DisorderConfig(mode=mode, zeta=self.zeta, steps=self.steps,
                              realizations=self.realizations, master_seed=self.seed)

    def resolved_fit_windows(self) -> tuple[int, int, int, int]:
        n_hi = self.steps if self.fit_n_hi is None else self.fit_n_hi
        d_hi = self.steps - 6 if self.fit_d_hi is None else self.fit_d_hi
        return self.fit_n_lo, n_hi, self.fit_d_lo, d_hi


# manifest file key -> (dataclass field, parser)
_MANIFEST_KEYS = {
    "schema": ("schema_version", int),
    "mode": ("mode", str),
    "zeta": ("zeta", parse_zeta),
    "steps": ("steps", int),
    "realizations": ("realizations", int),
    "seed": ("seed", int),
    "engine": ("engine", str),
    "threads": ("threads", int),
    "out_dir": ("out_dir", str),
    "fit.n_lo": ("fit_n_lo", int),
    "fit.n_hi": ("fit_n_hi", int),
    "fit.d_lo": ("fit_d_lo", int),
    "fit.d_hi": ("fit_d_hi", int),
}
_FIELD_TO_KEY = {field: key for key, (field, _) in _MANIFEST_KEYS.items()}


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
        if key not in _MANIFEST_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        pairs[key] = value
    return pairs


def manifest_from_pairs(pairs: dict[str, str]) -> RunManifest:
    manifest = RunManifest()
    for key, raw in pairs.items():
        if key not in _MANIFEST_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        field_name, parser = _MANIFEST_KEYS[key]
        try:
            setattr(manifest, field_name, parser(raw))
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
    return manifest


def manifest_to_text(manifest: RunManifest) -> str:
    """Render a manifest in the config file format (lossless round-trip)."""
    lines = []
    for field in fields(RunManifest):
        value = getattr(manifest, field.name)
        if value is None:
            continue
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{_FIELD_TO_KEY[field.name]} = {rendered}")
    return "\n".join(lines) + "\n"


def read_manifest(path) -> RunManifest:
    return manifest_from_pairs(parse_manifest_text(Path(path).read_text()))


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
    (step, i, j) may appear once and no p may be negative."""
    rows = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["step", "i", "j", "p"]:
            raise ConfigError(f"{path}: expected header step,i,j,p, got {header}")
        for row in reader:
            if not row:
                continue  # blank line
            try:
                step, i, j, p = row
                key, p = (int(step), int(i), int(j)), float(p)
            except ValueError:
                raise ConfigError(
                    f"{path}: line {reader.line_num}: expected integers step,i,j "
                    f"and a float p, got {row}"
                ) from None
            if p < 0:
                raise ConfigError(f"{path}: line {reader.line_num}: negative p = {p!r}")
            if key in rows:
                raise ConfigError(
                    f"{path}: line {reader.line_num}: repeats step {key[0]}, "
                    f"site ({key[1]}, {key[2]})"
                )
            rows[key] = p
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    keys = np.fromiter(chain.from_iterable(rows), np.int64, 3 * len(rows)).reshape(-1, 3)
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

def _fit_to_dict(fit) -> dict:
    if fit is None:
        return None
    if isinstance(fit, dict):
        return fit
    if isinstance(fit, ScalingFit):
        return {"alpha": fit.alpha, "prefactor": fit.prefactor,
                "n_lo": fit.n_lo, "n_hi": fit.n_hi, "r_squared": fit.r_squared}
    if isinstance(fit, LocalizationFit):
        return {"slope": fit.slope, "intercept": fit.intercept,
                "d_lo": fit.d_lo, "d_hi": fit.d_hi, "r_squared": fit.r_squared}
    raise TypeError(f"cannot serialize fit {fit!r}")


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


def read_result_json(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


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
