import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qwalk2d import (
    ConfigError,
    DisorderConfig,
    DisorderMode,
    InvariantViolationError,
    UnsupportedModeError,
    exact_run,
    run_ensemble,
    run_trajectory,
    variance_series,
)
from qwalk2d.disorder import PhaseSampler
from qwalk2d.errors import LatticeOverflowError
from qwalk2d.evolve import (
    _step,
    cross_site_coherence_factor,
    exact_step_density,
    initial_density,
    same_site_coherence_factor,
)
from qwalk2d.state import initial_state
from conftest import assert_support_ok, full_grid_step, iter_walk_states, walk_states
from reference import ref_probs, ref_run, ref_step, ref_variance

R8 = 1.0 / math.sqrt(8.0)


def config(mode, zeta, steps, realizations=1, seed=0):
    return DisorderConfig(mode, zeta, steps=steps, realizations=realizations,
                          master_seed=seed)


def zero_phase(sampler_cfg, n, half_width):
    return PhaseSampler(sampler_cfg, 0).phases_for_step(n, half_width)


class TestGoldenFirstStep:
    """The no-dephasing first step has a known closed form."""

    EXPECTED = {
        (-1, -1): ((1 + 1j) * R8, 0j),
        (-1, +1): (0j, (1 + 1j) * R8),
        (+1, -1): ((1 - 1j) * R8, 0j),
        (+1, +1): (0j, -(1 - 1j) * R8),
    }

    def first_step_state(self):
        cfg = config(DisorderMode.NONE, 0.0, steps=1)
        state = initial_state(1)
        return full_grid_step(state, zero_phase(cfg, 1, 1))

    def test_amplitudes_match_closed_form(self):
        s1 = self.first_step_state()
        for (i, j), (ah, av) in self.EXPECTED.items():
            got_h, got_v = s1.amps[i + 1, j + 1]
            assert got_h == pytest.approx(ah, abs=1e-12)
            assert got_v == pytest.approx(av, abs=1e-12)

    def test_exactly_four_sites_each_quarter(self):
        s1 = self.first_step_state()
        probs = np.abs(s1.amps[..., 0]) ** 2 + np.abs(s1.amps[..., 1]) ** 2
        occupied = np.nonzero(probs > 0.0)
        assert occupied[0].size == 4
        np.testing.assert_allclose(probs[occupied], 0.25, atol=1e-12)

    def test_a_step_grows_the_sublattice_by_one_site_per_axis(self):
        assert _step(initial_state(0).amps, None).shape == (2, 2, 2)


class TestStepAgainstReference:
    def test_unitary_walk_matches_reference_for_20_steps(self):
        cfg = config(DisorderMode.NONE, 0.0, steps=20)
        states = walk_states(cfg)
        history = ref_run(20)
        for n in (1, 5, 13, 20):
            state = states[n]
            for (i, j), (h, v) in history[n].items():
                got_h, got_v = state.amps[i + 20, j + 20]
                assert got_h == pytest.approx(h, abs=1e-12)
                assert got_v == pytest.approx(v, abs=1e-12)
            grid_total = sum(ref_probs(history[n]).values())
            assert grid_total == pytest.approx(1.0, abs=1e-12)

    def test_dephased_steps_match_reference(self, rng):
        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, math.pi, steps=6, seed=99)
        sampler = PhaseSampler(cfg, 0)
        state = initial_state(6)
        ref_amps = {(0, 0): (state.amps[6, 6, 0], state.amps[6, 6, 1])}
        for n in range(1, 7):
            pm = sampler.phases_for_step(n, 6)
            state = full_grid_step(state, pm)
            values = pm.values
            ref_amps = ref_step(ref_amps, lambda i, j: float(values[i + 6, j + 6]))
            for (i, j), (h, v) in ref_amps.items():
                got_h, got_v = state.amps[i + 6, j + 6]
                assert got_h == pytest.approx(h, abs=1e-12)
                assert got_v == pytest.approx(v, abs=1e-12)

    def test_norm_preserved_for_any_phases(self, rng):
        cfg = config(DisorderMode.STATIC_SPATIAL, math.pi, steps=10, seed=3)
        probs = run_trajectory(cfg, 0).probabilities
        for n, state in enumerate(walk_states(cfg)):
            assert abs(state.norm() - 1.0) <= 1e-12
            np.testing.assert_array_equal(state.probabilities(), probs[n])


class TestRunTrajectory:
    def test_zeta_zero_output_independent_of_seed_and_index(self):
        a = run_trajectory(config(DisorderMode.DYNAMICAL_SPATIAL, 0.0, 6, seed=1), 0)
        b = run_trajectory(config(DisorderMode.DYNAMICAL_SPATIAL, 0.0, 6, seed=777), 5)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_snapshot_after_one_step_has_four_sites(self):
        traj = run_trajectory(config(DisorderMode.DYNAMICAL_UNIFORM, math.pi, 1, seed=4), 0)
        assert int((traj.probabilities[1] > 0).sum()) == 4

    def test_variance_at_20_steps_matches_reference_walker(self):
        # independent exact evolver for the zero-noise case
        traj = run_trajectory(config(DisorderMode.NONE, 0.0, 20), 0)
        v_engine = variance_series(traj.probabilities, traj.half_width)[20]
        v_ref = ref_variance(ref_probs(ref_run(20)[-1]))
        assert v_engine == pytest.approx(v_ref, abs=1e-10)

    # as run_ensemble checks threads: a bool, a non-integer or an index
    # outside every ensemble (0..R-1) is refused before any walk
    @pytest.mark.parametrize("index,message", [
        (True, "must be an integer, got True"),
        (False, "must be an integer, got False"),
        (1.5, "must be an integer, got 1.5"),
        (1.0, "must be an integer, got 1.0"),
        ("1", "must be an integer, got '1'"),
        (None, "must be an integer, got None"),
        (-1, "must be >= 0, got -1"),
        (np.int64(-3), "must be >= 0, got -3"),
    ], ids=["true", "false", "float", "integral-float", "str", "none", "negative", "np-negative"])
    def test_bad_trajectory_index_is_config_error(self, index, message, monkeypatch):
        import qwalk2d.evolve as evolve_mod

        def refuse(*args):
            raise AssertionError("walked before the index check")

        monkeypatch.setattr(evolve_mod, "walk_group", refuse)
        with pytest.raises(ConfigError, match=f"^trajectory_index {message}$"):
            run_trajectory(config(DisorderMode.DYNAMICAL_SPATIAL, math.pi, 3), index)

    # uint8(255) + 1 would wrap to 0
    @pytest.mark.parametrize("index", [np.int64(5), np.uint8(255)], ids=["int64", "uint8-max"])
    def test_numpy_integer_index_is_the_int_index(self, index):
        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, math.pi, 4, realizations=256)
        want = run_trajectory(cfg, int(index))
        got = run_trajectory(cfg, index)
        np.testing.assert_array_equal(got.probabilities, want.probabilities)
        np.testing.assert_array_equal(got.variances, want.variances)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_phase_names_trajectory_and_step(self, bad, monkeypatch):
        real = PhaseSampler.fill_window

        def corrupt(self, n, out, rows):
            real(self, n, out, rows)
            if n == 2:
                out[...] = bad

        monkeypatch.setattr(PhaseSampler, "fill_window", corrupt)
        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, math.pi, 4, realizations=8)
        with pytest.raises(InvariantViolationError, match="trajectory 5: norm at step 2"):
            run_trajectory(cfg, 5)
        # the ensemble passes the error on, so the message names the trajectory once
        with pytest.raises(InvariantViolationError, match="trajectory 0: norm at step 2") as info:
            run_ensemble(cfg)
        assert str(info.value).count("trajectory") == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_two_non_finite_trajectories_name_the_first_in_index_order(self, monkeypatch):
        # R=8 at N=4 is one group; trajectory 5 goes non-finite at step 2,
        # and so does trajectory 3, which the group's check must name
        class CorruptSampler(PhaseSampler):
            def __init__(self, cfg, k):
                super().__init__(cfg, k)
                self.index = k

            def fill_window(self, step, out, rows):
                super().fill_window(step, out, rows)
                if step == 2 and self.index in (5, 3):
                    out[...] = {5: math.nan, 3: math.inf}[self.index]

        monkeypatch.setattr("qwalk2d.evolve.PhaseSampler", CorruptSampler)
        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, math.pi, 4, realizations=8)
        with pytest.raises(InvariantViolationError) as info:
            run_ensemble(cfg)
        assert str(info.value).startswith("trajectory 3: norm at step 2 is nan,")

    @pytest.mark.parametrize("mode", [DisorderMode.DYNAMICAL_SPATIAL,
                                      DisorderMode.STATIC_SPATIAL])
    def test_light_cone_window_matches_full_grid_bit_for_bit(self, mode):
        # at N=64 the full grid passes 16384 sites, where numpy would reorder
        # the dephasing product on its own; the window stays below that size
        # until step 64, so only a fixed operand order keeps the two equal
        cfg = config(mode, math.pi, 64, seed=11)
        probs = run_trajectory(cfg, 3).probabilities
        for n, state in enumerate(walk_states(cfg, 3)):
            np.testing.assert_array_equal(state.probabilities(), probs[n])

    @settings(deadline=None)
    @given(mode=st.sampled_from(list(DisorderMode)), zeta=st.floats(0.0, math.pi),
           steps=st.integers(1, 12), seed=st.integers(0, 2**64 - 1),
           index=st.integers(0, 2**20))
    def test_sublattice_matches_full_grid_bit_for_bit(self, mode, zeta, steps, seed, index):
        cfg = config(mode, zeta, steps, realizations=index + 1, seed=seed)
        full = np.stack([s.probabilities() for s in walk_states(cfg, index)])
        np.testing.assert_array_equal(run_trajectory(cfg, index).probabilities, full)

    def test_sublattice_past_the_elision_size_matches_full_grid(self):
        # the last steps' sublattice grids (up to 131^2 sites) pass 16384
        # complex elements, where numpy starts to reuse temporaries; the
        # kernels must round alike on both sides of that size
        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, math.pi, 130, seed=21)
        probs = run_trajectory(cfg, 1).probabilities
        for n, state in enumerate(iter_walk_states(cfg, 1)):
            np.testing.assert_array_equal(state.probabilities(), probs[n])

    @settings(deadline=None)
    @given(engine_mode=st.sampled_from([("trajectory", mode) for mode in DisorderMode]
                                       + [("exact", mode) for mode in DisorderMode
                                          if mode is not DisorderMode.STATIC_SPATIAL]),
           zeta=st.floats(0.0, math.pi), steps=st.integers(1, 10),
           seed=st.integers(0, 2**64 - 1), index=st.integers(0, 99))
    @example(engine_mode=("trajectory", DisorderMode.DYNAMICAL_SPATIAL), zeta=math.pi,
             steps=12, seed=8, index=0)
    def test_support_and_parity_all_steps(self, engine_mode, zeta, steps, seed, index):
        # off the i = j = n (mod 2) sublattice every probability is exactly 0.0
        engine, mode = engine_mode
        cfg = config(mode, zeta, steps, realizations=100, seed=seed)
        run = run_trajectory(cfg, index) if engine == "trajectory" else exact_run(cfg)
        coords = np.arange(-steps, steps + 1)
        for n, probs in enumerate(run.probabilities):
            odd = (coords - n) % 2 != 0
            assert np.all(probs[odd[:, None] | odd[None, :]] == 0.0)
            assert_support_ok(probs, steps, n)


class TestDampingFactors:
    ZETAS = [1e-9, 0.3, math.pi / 2, 0.75 * math.pi, math.pi]

    @pytest.mark.parametrize("zeta", ZETAS)
    def test_same_site_factor_matches_quadrature(self, zeta):
        # average of e^{i phi}; the imaginary part vanishes by symmetry
        real = quad(np.cos, -zeta, zeta)[0] / (2 * zeta)
        imag = quad(np.sin, -zeta, zeta)[0] / (2 * zeta)
        assert abs(imag) < 1e-14
        assert same_site_coherence_factor(zeta) == pytest.approx(real, abs=1e-10)

    @pytest.mark.parametrize("zeta", ZETAS)
    def test_cross_site_factor_matches_quadrature(self, zeta):
        # product of two independent averages of e^{+-i phi/2}
        half = quad(lambda p: np.cos(p / 2), -zeta, zeta)[0] / (2 * zeta)
        assert cross_site_coherence_factor(zeta) == pytest.approx(half ** 2, abs=1e-10)

    def test_limits(self):
        assert same_site_coherence_factor(0.0) == 1.0
        assert cross_site_coherence_factor(0.0) == 1.0
        assert same_site_coherence_factor(math.pi) == pytest.approx(0.0, abs=1e-15)
        assert cross_site_coherence_factor(math.pi) == pytest.approx((2 / math.pi) ** 2,
                                                                     abs=1e-12)

    def test_cross_site_factor_matches_monte_carlo_product(self, rng):
        # two independent sites: E[e^{-i phi/2}] E[e^{+i phi'/2}]
        zeta = math.pi
        phi = rng.uniform(-zeta, zeta, size=1_000_000)
        phi2 = rng.uniform(-zeta, zeta, size=1_000_000)
        mc = (np.exp(-0.5j * phi).mean() * np.exp(0.5j * phi2).mean()).real
        assert cross_site_coherence_factor(zeta) == pytest.approx(mc, abs=2e-3)


class TestExactChannel:
    def test_density_matches_outer_product(self):
        # one unitary oracle step from the origin is |psi_1><psi_1|, stored
        # at basis index ((i + 1) * 3 + (j + 1)) * 2 + c on half width 1
        cfg = config(DisorderMode.NONE, 0.0, steps=1)
        d = exact_step_density(initial_density(1), cfg)
        assert np.trace(d.rho).real == pytest.approx(1.0, abs=1e-12)
        a = 0    # (-1, -1, H): amplitude (1+i)/sqrt(8)
        b = 17   # (1, 1, V): amplitude -(1-i)/sqrt(8)
        amp_a = (1 + 1j) * R8
        amp_b = -(1 - 1j) * R8
        assert d.rho[a, a] == pytest.approx(abs(amp_a) ** 2, abs=1e-12)
        assert d.rho[a, b] == pytest.approx(amp_a * np.conj(amp_b), abs=1e-12)

    def test_zeta_zero_is_pure_unitary(self):
        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, 0.0, 3)
        d = initial_density(3)
        for _ in range(3):
            d = exact_step_density(d, cfg)
        assert np.vdot(d.rho, d.rho).real == pytest.approx(1.0, abs=1e-10)

    def test_trace_and_hermiticity_preserved(self):
        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, math.pi / 2, 4)
        d = initial_density(4)
        for _ in range(4):
            d = exact_step_density(d, cfg)
            assert abs(np.trace(d.rho).real - 1.0) <= 1e-10
            assert np.abs(d.rho - d.rho.conj().T).max() <= 1e-12

    def test_positive_semidefinite(self):
        cfg = config(DisorderMode.DYNAMICAL_UNIFORM, math.pi, 3)
        d = initial_density(3)
        for _ in range(3):
            d = exact_step_density(d, cfg)
        eigs = np.linalg.eigvalsh(d.rho)
        assert eigs.min() >= -1e-10

    def test_purity_monotone_under_dephasing(self):
        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, 2.0, 5)
        d = initial_density(5)
        purity = [np.vdot(d.rho, d.rho).real]
        for _ in range(5):
            d = exact_step_density(d, cfg)
            purity.append(np.vdot(d.rho, d.rho).real)
        assert all(b <= a + 1e-12 for a, b in zip(purity, purity[1:]))
        assert purity[-1] < purity[0]

    def test_static_mode_rejected(self):
        cfg = config(DisorderMode.STATIC_SPATIAL, math.pi, 3)
        with pytest.raises(UnsupportedModeError):
            exact_step_density(initial_density(3), cfg)
        with pytest.raises(UnsupportedModeError):
            exact_run(cfg)

    def test_lattice_bound_enforced(self):
        cfg = config(DisorderMode.NONE, 0.0, 2)
        d = initial_density(2)
        d = exact_step_density(d, cfg)
        d = exact_step_density(d, cfg)
        with pytest.raises(LatticeOverflowError):
            exact_step_density(d, cfg)


class TestExactRun:
    def test_first_step_distribution_is_quarter_peaks_for_any_zeta(self):
        for mode in (DisorderMode.DYNAMICAL_SPATIAL, DisorderMode.DYNAMICAL_UNIFORM):
            res = exact_run(config(mode, math.pi, 1))
            p1 = res.probabilities[1]
            occupied = p1[p1 > 0]
            assert occupied.size == 4
            np.testing.assert_allclose(occupied, 0.25, atol=1e-12)

    def test_zero_noise_equals_trajectory_at_8_steps(self):
        cfg = config(DisorderMode.NONE, 0.0, 8)
        exact = exact_run(cfg)
        traj = run_trajectory(cfg, 0)
        np.testing.assert_allclose(exact.probabilities, traj.probabilities, atol=1e-12)
        v_traj = variance_series(traj.probabilities, traj.half_width)
        np.testing.assert_allclose(exact.variances, v_traj, atol=1e-10)

    def test_monte_carlo_matches_exact_channel(self):
        # spec'd consistency scale: 20000 realizations, 5 steps, maximal phase
        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, math.pi, 5,
                     realizations=20_000, seed=77)
        exact = exact_run(cfg)
        ens = run_ensemble(cfg, threads=2)
        p = exact.probabilities
        bound = 3.0 * np.sqrt(p * (1 - p) / cfg.realizations) + 1e-12
        assert np.all(np.abs(ens.probabilities - p) <= bound)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_site_probabilities_are_an_invariant_violation(self, bad,
                                                                       monkeypatch):
        import qwalk2d.evolve as evolve_mod

        real = evolve_mod._channel

        def corrupt(t, config, walk):
            t = real(t, config, walk)
            if t.shape[0] == 3:  # step 2: write its centre's H population
                t[1, 1, 0, 1, 1, 0] = bad
            return t

        monkeypatch.setattr(evolve_mod, "_channel", corrupt)
        with pytest.raises(InvariantViolationError, match="oracle trace at step 2"):
            exact_run(config(DisorderMode.DYNAMICAL_SPATIAL, math.pi / 2, 3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cross_site_factor_stays_off_the_populations(self, bad,
                                                                     monkeypatch):
        # a step's populations sit in the same-site blocks, which the
        # cross-site factor must never touch
        import qwalk2d.evolve as evolve_mod

        cfg = config(DisorderMode.DYNAMICAL_SPATIAL, math.pi / 2, 1)
        clean = exact_run(cfg).probabilities
        monkeypatch.setattr(evolve_mod, "cross_site_coherence_factor", lambda zeta: bad)
        np.testing.assert_array_equal(exact_run(cfg).probabilities, clean)

    @pytest.mark.parametrize("mode", [DisorderMode.NONE, DisorderMode.DYNAMICAL_SPATIAL,
                                      DisorderMode.DYNAMICAL_UNIFORM])
    def test_light_cone_lattice_matches_full_lattice_bit_for_bit(self, mode):
        # exact_run on the parity sublattice against a chain of full-grid
        # exact_step_density calls, as the benchmark's replay builds it
        for zeta in (math.pi / 2, math.pi):
            cfg = config(mode, zeta, 10)
            d = initial_density(10)
            full = [d.site_probabilities()]
            for _ in range(10):
                d = exact_step_density(d, cfg)
                full.append(d.site_probabilities())
            full = np.stack(full)
            exact = exact_run(cfg)
            np.testing.assert_array_equal(exact.probabilities, full)
            np.testing.assert_array_equal(exact.variances, variance_series(full, 10))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("factor", ["cross_site_coherence_factor",
                                        "same_site_coherence_factor"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_damping_factor_is_an_invariant_violation(self, bad, factor,
                                                                 monkeypatch, tmp_path):
        # the coherences it damps at step 1 reach the populations at step 2
        import qwalk2d.evolve as evolve_mod
        from qwalk2d.cli import main

        monkeypatch.setattr(evolve_mod, factor, lambda zeta: bad)
        with pytest.raises(InvariantViolationError, match="oracle trace at step 2"):
            exact_run(config(DisorderMode.DYNAMICAL_SPATIAL, math.pi / 2, 3))
        assert main(["oracle", "--mode", "dynamical-spatial", "--zeta", "pi/2", "--steps", "3",
                     "--seed", "1", "--out-dir", str(tmp_path)]) == 4

    def test_oracle_scale_cap(self):
        from qwalk2d import ConfigError

        with pytest.raises(ConfigError):
            exact_run(config(DisorderMode.NONE, 0.0, 21))
