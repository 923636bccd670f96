"""Independent brute-force reference walker for cross-checking the engine,
and the row-by-row distributions CSV reader.

The walker is deliberately naive: a dict keyed by site holding (aH, aV)
pairs, evolved with plain Python loops.  It shares no code with the
package, so agreement is meaningful.

read_distribution_csv is the reader as it was before the package parsed
the CSV at C speed, kept verbatim but for the rules the package's reader
took on when it began to read into sublattice windows: every site must
lie on its step's sublattice, the grid's half width is the last step, and
each step's total is summed over that step's sublattice sites, in the
order the package's windows sum them.  It uses the package's
Distribution2D and error types only so that its results and messages
compare directly.
write_distribution_csv is the writer as it was before it streamed each
step's rows, formatting one row at a time; it is kept verbatim too.
"""

import cmath
import csv
import math
from itertools import chain
from pathlib import Path

import numpy as np

from qwalk2d.analysis import Distribution2D
from qwalk2d.errors import ConfigError, check_unit_total

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ref_initial():
    return {(0, 0): (INV_SQRT2, 1j * INV_SQRT2)}


def ref_coin(amps):
    out = {}
    for site, (h, v) in amps.items():
        out[site] = ((h + v) * INV_SQRT2, (h - v) * INV_SQRT2)
    return out


def _ref_shift(amps, di_h, dj_h, di_v, dj_v):
    out = {}
    for (i, j), (h, v) in amps.items():
        if h != 0:
            th = (i + di_h, j + dj_h)
            old = out.get(th, (0j, 0j))
            out[th] = (old[0] + h, old[1])
        if v != 0:
            tv = (i + di_v, j + dj_v)
            old = out.get(tv, (0j, 0j))
            out[tv] = (old[0], old[1] + v)
    return out


def ref_shift_x(amps):
    return _ref_shift(amps, -1, 0, +1, 0)


def ref_shift_y(amps):
    return _ref_shift(amps, 0, -1, 0, +1)


def ref_dephase(amps, phase_at):
    """phase_at(i, j) returns the phase applied at that site."""
    out = {}
    for (i, j), (h, v) in amps.items():
        factor = cmath.exp(-0.5j * phase_at(i, j))
        out[(i, j)] = (h * factor, v * factor.conjugate())
    return out


def ref_step(amps, phase_at):
    amps = ref_coin(amps)
    amps = ref_shift_x(amps)
    amps = ref_coin(amps)
    amps = ref_shift_y(amps)
    return ref_dephase(amps, phase_at)


def ref_probs(amps):
    return {site: abs(h) ** 2 + abs(v) ** 2 for site, (h, v) in amps.items()}


def ref_norm(amps):
    return sum(ref_probs(amps).values())


def ref_variance(probs):
    total = sum(probs.values())
    mx = sum(p * i for (i, _), p in probs.items()) / total
    my = sum(p * j for (_, j), p in probs.items()) / total
    return sum(p * ((i - mx) ** 2 + (j - my) ** 2) for (i, j), p in probs.items()) / total


def ref_run(n_steps, phase_for_step=None):
    """Evolve n_steps; phase_for_step(n) returns a phase_at callable
    (default: no dephasing).  Returns the list of per-step amp dicts."""
    amps = ref_initial()
    history = [amps]
    for n in range(1, n_steps + 1):
        phase_at = (lambda i, j: 0.0) if phase_for_step is None else phase_for_step(n)
        amps = ref_step(amps, phase_at)
        history.append(amps)
    return history


def read_distribution_csv(path) -> list[Distribution2D]:
    """Read distributions back; steps must be contiguous from 0, each
    (step, i, j) may appear once with |i|, |j| <= step and i = j = step
    (mod 2), where a walk can be, and no p may be negative."""
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
                if (i - step) % 2 != 0 or (j - step) % 2 != 0:
                    raise ConfigError(
                        f"{path}: line {reader.line_num}: site ({i}, {j}) "
                        f"lies off i = j = step (mod 2) for step {step}"
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
    half_width = len(steps) - 1
    size = 2 * half_width + 1
    grids = np.zeros((len(steps), size, size))
    grids[keys[:, 0], keys[:, 1] + half_width, keys[:, 2] + half_width] = \
        np.fromiter(rows.values(), float, len(rows))
    dists = []
    for step in range(len(steps)):
        sites = slice(half_width - step, half_width + step + 1, 2)
        total = grids[step][sites, sites].copy().sum()  # a contiguous window's sum
        check_unit_total(total, f"{path}: distribution sum at step {step}")
        dists.append(Distribution2D(grids[step], half_width, step))
    return dists


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
