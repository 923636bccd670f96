"""Acceptance suite: every shipped claim at its stated tolerance.

One test per criterion; each prints a pass/fail line (visible with -s).
The full-scale ensembles (500 realizations, 20 steps) are shared module-wide.
"""

import contextlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from qwalk2d import (
    DisorderConfig,
    DisorderMode,
    axis_cuts,
    exact_run,
    fit_localization,
    fit_scaling_exponent,
    run_ensemble,
    run_trajectory,
    variance_series,
)
from qwalk2d.disorder import PhaseSampler
from qwalk2d.evolve import cross_site_coherence_factor, same_site_coherence_factor
from qwalk2d.state import initial_state
from conftest import assert_support_ok, full_grid_step, walk_states

MASTER_SEED = 424242
THREADS = 2
STEPS = 20
REALIZATIONS = 500

# pinned reference values for the 500-realization, 20-step ensembles
DIFFUSIVE_V20 = 51.25
DIFFUSIVE_V20_TOL = 5.0
UNIFORM_V20 = 98.45
UNIFORM_V20_TOL = 8.0


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def _ensemble(mode, zeta, steps=STEPS, realizations=REALIZATIONS):
    cfg = DisorderConfig(mode, zeta, steps=steps, realizations=realizations,
                         master_seed=MASTER_SEED)
    return run_ensemble(cfg, threads=THREADS)


@pytest.fixture(scope="module")
def ballistic():
    return _ensemble(DisorderMode.DYNAMICAL_SPATIAL, 0.0)


@pytest.fixture(scope="module")
def spatial_pi():
    return _ensemble(DisorderMode.DYNAMICAL_SPATIAL, math.pi)


@pytest.fixture(scope="module")
def spatial_half_pi():
    return _ensemble(DisorderMode.DYNAMICAL_SPATIAL, math.pi / 2)


@pytest.fixture(scope="module")
def uniform_pi():
    return _ensemble(DisorderMode.DYNAMICAL_UNIFORM, math.pi)


@pytest.fixture(scope="module")
def static_pi():
    return _ensemble(DisorderMode.STATIC_SPATIAL, math.pi)


@pytest.fixture(scope="module")
def all_ensembles(ballistic, spatial_pi, spatial_half_pi, uniform_pi, static_pi):
    return {
        "ballistic": ballistic,
        "spatial_pi": spatial_pi,
        "spatial_half_pi": spatial_half_pi,
        "uniform_pi": uniform_pi,
        "static_pi": static_pi,
    }


@pytest.fixture(scope="module")
def oracle_pairs():
    """(exact, monte-carlo) pairs for both dynamical modes at zeta = pi/2."""
    pairs = {}
    for mode in (DisorderMode.DYNAMICAL_SPATIAL, DisorderMode.DYNAMICAL_UNIFORM):
        cfg = DisorderConfig(mode, math.pi / 2, steps=5, realizations=20_000,
                             master_seed=MASTER_SEED)
        pairs[mode] = (exact_run(cfg), run_ensemble(cfg, threads=THREADS))
    return pairs


def test_criterion_1_golden_first_step():
    with criterion(1, "golden first step"):
        cfg = DisorderConfig(DisorderMode.NONE, 0.0, steps=1, realizations=1,
                             master_seed=0)
        state = full_grid_step(initial_state(1), PhaseSampler(cfg, 0).phases_for_step(1, 1))
        r8 = 1.0 / math.sqrt(8.0)
        expected = {
            (-1, -1): ((1 + 1j) * r8, 0j),
            (-1, +1): (0j, (1 + 1j) * r8),
            (+1, -1): ((1 - 1j) * r8, 0j),
            (+1, +1): (0j, -(1 - 1j) * r8),
        }
        for (i, j), (ah, av) in expected.items():
            got_h, got_v = state.amps[i + 1, j + 1]
            assert abs(got_h - ah) <= 1e-12
            assert abs(got_v - av) <= 1e-12
        probs = np.abs(state.amps[..., 0]) ** 2 + np.abs(state.amps[..., 1]) ** 2
        occupied = probs[probs > 0]
        assert occupied.size == 4
        assert np.abs(occupied - 0.25).max() <= 1e-12
        assert abs(variance_series(probs[np.newaxis], 1)[0] - 2.0) <= 1e-12


def test_criterion_2_ballistic_regime(ballistic):
    with criterion(2, "ballistic regime"):
        fit = fit_scaling_exponent(ballistic.variances, 10, 20)
        assert 1.8 <= fit.alpha <= 2.05, f"alpha = {fit.alpha}"
        for n in (10, 20):
            p = ballistic.probabilities[n]
            assert np.abs(p - p[::-1, :]).max() <= 1e-9, f"x reflection broken at n={n}"
            assert np.abs(p - p[:, ::-1]).max() <= 1e-9, f"y reflection broken at n={n}"


def test_criterion_3_diffusive_transition(spatial_pi):
    with criterion(3, "diffusive transition"):
        v20 = spatial_pi.variances[20]
        assert abs(v20 - DIFFUSIVE_V20) <= DIFFUSIVE_V20_TOL, f"V(20) = {v20}"
        fit = fit_scaling_exponent(spatial_pi.variances, 10, 20)
        assert 0.85 <= fit.alpha <= 1.25, f"alpha = {fit.alpha}"


def test_criterion_4_uniform_dephasing(uniform_pi, spatial_pi):
    with criterion(4, "uniform dephasing"):
        v20 = uniform_pi.variances[20]
        assert abs(v20 - UNIFORM_V20) <= UNIFORM_V20_TOL, f"V(20) = {v20}"
        assert v20 > spatial_pi.variances[20]


@pytest.mark.parametrize("mode,v20,tol", [
    (DisorderMode.DYNAMICAL_SPATIAL, DIFFUSIVE_V20, DIFFUSIVE_V20_TOL),
    (DisorderMode.DYNAMICAL_UNIFORM, UNIFORM_V20, UNIFORM_V20_TOL),
])
def test_exact_v20_lies_in_the_criterion_3_and_4_bands(mode, v20, tol):
    # the exact channel at the acceptance scale: 51.7649... and 98.6703...
    exact = exact_run(DisorderConfig(mode, math.pi, steps=STEPS, realizations=1,
                                     master_seed=MASTER_SEED))
    assert abs(exact.variances[20] - v20) <= tol, f"exact V(20) = {exact.variances[20]}"


def test_criterion_5_monotone_in_zeta(ballistic, spatial_half_pi, spatial_pi):
    with criterion(5, "V(20) decreases with zeta"):
        ordered = [ballistic, spatial_half_pi, spatial_pi]
        v = [e.variances[20] for e in ordered]
        se = [e.variance_stderr[20] for e in ordered]
        assert v[0] > v[1] > v[2]
        for a, b in ((0, 1), (1, 2)):
            gap = v[a] - v[b]
            combined = math.hypot(se[a], se[b])
            assert gap > 3.0 * combined, f"gap {gap} vs 3 x {combined}"


def test_criterion_6_anderson_localization(static_pi, ballistic):
    with criterion(6, "Anderson localization"):
        final = static_pi.distributions()[20]
        cuts = axis_cuts(final)
        for profile in (cuts.along_x, cuts.along_y):
            fit = fit_localization(cuts.coords, profile, 2, 14)
            assert fit.slope < 0.0, f"slope = {fit.slope}"
            assert fit.r_squared >= 0.9, f"r^2 = {fit.r_squared}"
        peak = final.probs[20, 20]
        ballistic_center = ballistic.probabilities[20][20, 20]
        assert peak >= 5.0 * ballistic_center, f"{peak} vs {ballistic_center}"


def test_criterion_7_oracle_equivalence(oracle_pairs):
    with criterion(7, "oracle equivalence"):
        for mode, (exact, ens) in oracle_pairs.items():
            p = exact.probabilities
            bound = 5.0 * np.sqrt(p * (1 - p) / 20_000) + 1e-9
            diff = np.abs(ens.probabilities - p)
            assert np.all(diff <= bound), f"{mode}: max excess {(diff - bound).max()}"
        # channel damping factors against direct quadrature of the phase law
        for zeta in (0.3, math.pi / 2, math.pi):
            same = quad(np.cos, -zeta, zeta)[0] / (2 * zeta)
            half = quad(lambda p: np.cos(p / 2), -zeta, zeta)[0] / (2 * zeta)
            assert abs(same_site_coherence_factor(zeta) - same) <= 1e-10
            assert abs(cross_site_coherence_factor(zeta) - half ** 2) <= 1e-10


def test_criterion_8a_norm_drift_over_50_steps():
    with criterion("8a", "norm drift over 50 steps"):
        cfg = DisorderConfig(DisorderMode.DYNAMICAL_SPATIAL, math.pi, steps=50,
                             realizations=1, master_seed=MASTER_SEED)
        probs = run_trajectory(cfg, 0).probabilities
        for n, state in enumerate(walk_states(cfg)):
            assert abs(state.norm() - 1.0) <= 1e-12, f"drift at step {n}"
            assert np.array_equal(state.probabilities(), probs[n])


def test_criterion_8b_distributions_normalized(all_ensembles):
    with criterion("8b", "distributions normalized each step"):
        for name, ens in all_ensembles.items():
            sums = ens.probabilities.sum(axis=(1, 2))
            worst = float(np.abs(sums - 1.0).max())
            assert worst <= 1e-9, f"{name}: {worst}"


def test_criterion_8c_thread_count_invariance():
    with criterion("8c", "identical across 1/2/4/8 threads"):
        cfg = DisorderConfig(DisorderMode.DYNAMICAL_SPATIAL, math.pi, steps=8,
                             realizations=64, master_seed=MASTER_SEED)
        base = run_ensemble(cfg, threads=1)
        for threads in (2, 4, 8):
            other = run_ensemble(cfg, threads=threads)
            assert np.array_equal(other.probabilities, base.probabilities)
            assert np.array_equal(other.variances, base.variances)
            assert np.array_equal(other.variance_stderr, base.variance_stderr)


def test_criterion_8d_support_and_parity(all_ensembles):
    with criterion("8d", "support bounds and parity"):
        for name, ens in all_ensembles.items():
            for n, probs in enumerate(ens.probabilities):
                assert_support_ok(probs, ens.half_width, n)
