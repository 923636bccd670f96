"""Observables and fits: site distributions, variance, scaling exponents,
axis cuts, and exponential-decay (localization) fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConfigError

# below this, the total spread of a log series counts as exactly flat
_FLAT_EPS = 1e-30


@dataclass(frozen=True)
class Distribution2D:
    """Site detection probabilities p(i, j) on |i|, |j| <= half_width.

    probs[i + half_width, j + half_width] = p(i, j); step is the walk step
    the distribution belongs to.
    """

    probs: np.ndarray
    half_width: int
    step: int


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit V(n) ~ prefactor * n**alpha on a log-log grid."""

    alpha: float
    prefactor: float
    n_lo: int
    n_hi: int
    r_squared: float


@dataclass(frozen=True)
class LocalizationFit:
    """Exponential-decay fit log p ~ intercept + slope * |coordinate|.

    Fitted separately on the positive and negative side of one axis cut and
    averaged; slope < 0 means the profile decays away from the center.
    """

    slope: float
    intercept: float
    d_lo: int
    d_hi: int
    r_squared: float


@dataclass(frozen=True)
class AxisCuts:
    """Profiles along the two axes through the origin: p(i, 0) and p(0, j)."""

    coords: np.ndarray
    along_x: np.ndarray
    along_y: np.ndarray


def zeroed_array(shape: tuple[int, ...], what: str, needed_by: str) -> np.ndarray:
    """np.zeros(shape); a ConfigError naming what needs it and the shape if
    it cannot be allocated."""
    try:
        return np.zeros(shape)
    except (MemoryError, ValueError):  # ValueError: the byte count passes 2**63
        dims = " x ".join(map(str, shape))
        raise ConfigError(f"{needed_by} need a {dims} {what}, which cannot be allocated") from None


def site_coordinates(half_width: int) -> np.ndarray:
    return np.arange(-half_width, half_width + 1)


def variance_series(prob_stack: np.ndarray, half_width: int) -> np.ndarray:
    """Variance sum_ij p(i,j) |r_ij - mu|^2, r_ij = (i, j), of each grid in a
    stack of shape (n_steps, L, L)."""
    return marginal_variances(prob_stack.sum(axis=2), prob_stack.sum(axis=1), half_width)


def marginal_variances(px: np.ndarray, py: np.ndarray, half_width: int) -> np.ndarray:
    """The variance series of a grid stack from its marginals, both of
    shape (n_steps, L): px[n, i] = sum_j p_n(i, j), py[n, j] = sum_i p_n(i, j)."""
    r = site_coordinates(half_width).astype(float)
    mu_x = px @ r
    mu_y = py @ r
    vx = px @ (r ** 2) - mu_x ** 2
    vy = py @ (r ** 2) - mu_y ** 2
    return vx + vy


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = a + b x; returns (b, a, r_squared)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot < _FLAT_EPS:
        r_squared = 1.0 if ss_res < _FLAT_EPS else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def fit_scaling_exponent(variances, n_lo: int, n_hi: int) -> ScalingFit:
    """Fit V(n) = c * n**alpha over steps n_lo..n_hi (inclusive).

    variances is indexed by step, entry [n] being V at step n.  The fit is
    an ordinary least-squares line on (log n, log V), so every V in the
    window must be strictly positive and n_lo >= 1.
    """
    v = np.asarray(variances, dtype=float)
    if n_lo < 1:
        raise AnalysisError(f"scaling fits need n_lo >= 1 (log domain), got {n_lo}")
    if n_hi < n_lo + 1:
        raise AnalysisError(f"scaling fit window [{n_lo}, {n_hi}] has fewer than 2 points")
    if n_hi >= len(v):
        raise AnalysisError(f"variance series ends at step {len(v) - 1}, window asks for {n_hi}")
    ns = np.arange(n_lo, n_hi + 1)
    window = v[n_lo:n_hi + 1]
    if np.any(window <= 0.0):
        raise AnalysisError(f"nonpositive variance inside fit window [{n_lo}, {n_hi}]")
    slope, intercept, r2 = _line_fit(np.log(ns), np.log(window))
    return ScalingFit(alpha=slope, prefactor=float(np.exp(intercept)),
                      n_lo=n_lo, n_hi=n_hi, r_squared=r2)


def axis_cuts(dist: Distribution2D) -> AxisCuts:
    """Profiles along the x and y axes through the site (0, 0)."""
    h = dist.half_width
    return AxisCuts(coords=site_coordinates(h),
                    along_x=dist.probs[:, h].copy(),
                    along_y=dist.probs[h, :].copy())


def fit_localization(coords, probs, d_lo: int, d_hi: int) -> LocalizationFit:
    """Exponential-decay fit of one axis profile over d_lo <= |coordinate| <= d_hi.

    Each side of the origin is fitted on (|coordinate|, log p) separately,
    using only strictly positive probabilities (parity-empty sites never
    enter a log), then the two slopes, intercepts and r-squared values are
    averaged.  Raises AnalysisError when either side has fewer than 4
    usable points.
    """
    coords = np.asarray(coords)
    probs = np.asarray(probs, dtype=float)
    if not 0 <= d_lo < d_hi:
        raise AnalysisError(f"bad localization window [{d_lo}, {d_hi}]")
    slopes, intercepts, r2s = [], [], []
    for sign in (+1, -1):
        dist_from_center = sign * coords
        mask = (dist_from_center >= d_lo) & (dist_from_center <= d_hi) & (probs > 0.0)
        if int(mask.sum()) < 4:
            raise AnalysisError(
                f"localization fit needs >= 4 positive points per side in "
                f"|coordinate| in [{d_lo}, {d_hi}]; side {sign:+d} has {int(mask.sum())}"
            )
        slope, intercept, r2 = _line_fit(dist_from_center[mask].astype(float),
                                         np.log(probs[mask]))
        slopes.append(slope)
        intercepts.append(intercept)
        r2s.append(r2)
    return LocalizationFit(slope=float(np.mean(slopes)),
                           intercept=float(np.mean(intercepts)),
                           d_lo=d_lo, d_hi=d_hi,
                           r_squared=float(np.mean(r2s)))
