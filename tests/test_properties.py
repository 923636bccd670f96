"""Property tests: the walk unitary that both engines share, the phase
window a step is handed, the manifest text format, zeta parsing, and
`qwalk2d fit` on arbitrary manifest text."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk2d import (
    COIN_H,
    COIN_V,
    ConfigError,
    DensityState,
    DisorderConfig,
    DisorderMode,
    PhaseMatrix,
    PhaseSampler,
    WalkState,
    apply_coin,
    apply_shift_x,
    apply_shift_y,
    exact_step_density,
    step,
)
from qwalk2d.cli import main
from qwalk2d.state import _grow_x, _grow_y
from qwalk2d.io import (
    RunManifest,
    manifest_from_pairs,
    manifest_to_text,
    parse_manifest_text,
    parse_zeta,
)
from conftest import random_state

seeds = st.integers(0, 2**32 - 1)
half_widths = st.integers(1, 4)


class TestSharedUnitary:
    @settings(deadline=None)
    @given(seed=seeds, half_width=half_widths)
    def test_oracle_step_conjugates_with_the_trajectory_step(self, seed, half_width):
        psi = random_state(np.random.default_rng(seed), half_width)
        cfg = DisorderConfig(DisorderMode.NONE, 0.0, steps=half_width, realizations=1,
                             master_seed=0)
        vec = psi.amps.reshape(-1)
        got = exact_step_density(DensityState(np.outer(vec, vec.conj()), half_width), cfg).rho
        out = step(psi, PhaseMatrix(np.float64(0.0))).amps.reshape(-1)
        want = np.outer(out, out.conj())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(seed=seeds, half_width=half_widths)
    def test_norm_preserved(self, seed, half_width):
        rng = np.random.default_rng(seed)
        psi = random_state(rng, half_width)
        size = 2 * half_width + 1
        phases = PhaseMatrix(rng.uniform(-np.pi, np.pi, size=(size, size)))
        assert abs(step(psi, phases).norm() - 1.0) <= 1e-12
        cfg = DisorderConfig(DisorderMode.DYNAMICAL_SPATIAL, np.pi, steps=half_width,
                             realizations=1, master_seed=0)
        vec = psi.amps.reshape(-1)
        rho = exact_step_density(DensityState(np.outer(vec, vec.conj()), half_width), cfg).rho
        assert abs(np.trace(rho).real - 1.0) <= 1e-12

    @settings(deadline=None)
    @given(seed=seeds, half_width=half_widths, batch=st.integers(1, 3))
    def test_stacked_states_match_each_slice_bit_for_bit(self, seed, half_width, batch):
        rng = np.random.default_rng(seed)
        states = [random_state(rng, half_width) for _ in range(batch)]
        stack = WalkState(np.stack([s.amps for s in states]), half_width)
        for op in (apply_coin, apply_shift_x, apply_shift_y):
            stacked = op(stack).amps
            for b, state in enumerate(states):
                np.testing.assert_array_equal(stacked[b], op(state).amps)

    @settings(deadline=None)
    @given(seed=seeds, half_width=half_widths)
    def test_full_grid_shift_is_the_grow_kernel_then_the_crop(self, seed, half_width):
        psi = random_state(np.random.default_rng(seed), half_width)
        # the crop drops H's leading row and V's trailing row of the grown axis
        grown = _grow_x(psi).amps
        cropped = np.stack([grown[1:, :, COIN_H], grown[:-1, :, COIN_V]], axis=-1)
        np.testing.assert_array_equal(apply_shift_x(psi).amps, cropped)
        grown = _grow_y(psi).amps
        cropped = np.stack([grown[:, 1:, COIN_H], grown[:, :-1, COIN_V]], axis=-1)
        np.testing.assert_array_equal(apply_shift_y(psi).amps, cropped)

    @settings(deadline=None)
    @given(seed=seeds, n=st.integers(0, 6), batch=st.integers(1, 3))
    def test_stacked_sublattice_states_match_each_slice_bit_for_bit(self, seed, n, batch):
        rng = np.random.default_rng(seed)
        states = [WalkState(rng.normal(size=(n + 1, n + 1, 2))
                            + 1j * rng.normal(size=(n + 1, n + 1, 2)), n)
                  for _ in range(batch)]
        stack = WalkState(np.stack([s.amps for s in states]), n)
        for op in (apply_coin, _grow_x, _grow_y):
            stacked = op(stack).amps
            for b, state in enumerate(states):
                np.testing.assert_array_equal(stacked[b], op(state).amps)


class TestPhaseWindow:
    @settings(deadline=None)
    @given(mode=st.sampled_from([DisorderMode.DYNAMICAL_SPATIAL, DisorderMode.STATIC_SPATIAL]),
           seed=seeds, index=st.integers(0, 2**20), n_steps=st.integers(1, 12), data=st.data())
    def test_window_is_the_centre_of_the_whole_lattice(self, mode, seed, index, n_steps, data):
        widths = data.draw(st.lists(st.integers(0, n_steps), min_size=1, max_size=4))
        cfg = DisorderConfig(mode, np.pi, steps=n_steps, realizations=1, master_seed=seed)
        window, whole = PhaseSampler(cfg, index), PhaseSampler(cfg, index)
        for n, h in enumerate(widths, start=1):
            got = window.phases_for_step(n, h).values
            full = whole.phases_for_step(n, n_steps).values
            lo, hi = n_steps - h, n_steps + h + 1
            np.testing.assert_array_equal(got, full[lo:hi, lo:hi])


# a config value survives the format when it holds no '#' (a comment), no
# line break and no surrounding whitespace
values = st.text(st.characters(blacklist_characters="#",
                               blacklist_categories=("Cc", "Cs", "Zl", "Zp"))).map(str.strip)
ints = st.integers(-2**70, 2**70)


counts = st.integers(1, 2**70)
modes = st.sampled_from([mode.value for mode in DisorderMode])


@st.composite
def manifests(draw):
    # mode, zeta, steps, realizations and seed hold only values DisorderConfig takes,
    # and threads only values run_ensemble takes; the parsers reject the rest
    # (TestManifestText.test_out_of_range_rejected)
    return RunManifest(
        schema_version=1,
        mode=draw(st.none() | modes),
        zeta=draw(st.floats(0.0, math.pi)),
        steps=draw(counts),
        realizations=draw(counts),
        seed=draw(st.none() | st.integers(0, 2**64 - 1)),
        engine=draw(st.sampled_from(["trajectory", "exact"])),
        threads=draw(st.none() | counts),
        out_dir=draw(values),
        fit_n_lo=draw(ints),
        fit_n_hi=draw(st.none() | ints),
        fit_d_lo=draw(ints),
        fit_d_hi=draw(st.none() | ints),
    )


class TestManifestText:
    @given(manifest=manifests())
    def test_round_trip(self, manifest):
        text = manifest_to_text(manifest)
        assert manifest_from_pairs(parse_manifest_text(text)) == manifest

    @given(manifest=manifests(), data=st.data())
    def test_out_of_range_rejected(self, manifest, data):
        key, bad = data.draw(st.one_of(
            st.tuples(st.just("mode"), values.filter(
                lambda v: v not in {m.value for m in DisorderMode})),
            st.tuples(st.just("zeta"), st.floats().filter(lambda z: not 0.0 <= z <= math.pi)),
            st.tuples(st.sampled_from(["steps", "realizations", "threads"]),
                      st.integers(-2**70, 0)),
            st.tuples(st.just("seed"), st.integers(-2**70, -1) | st.integers(2**64, 2**70)),
        ))
        pairs = parse_manifest_text(manifest_to_text(manifest))
        pairs[key] = bad if isinstance(bad, str) else repr(bad)
        with pytest.raises(ConfigError, match=key):
            manifest_from_pairs(pairs)


decimals = st.from_regex(r"[0-9]*\.?[0-9]+", fullmatch=True)
spaces = st.sampled_from(["", " ", "  "])
pi_words = st.sampled_from(["pi", "PI", "Pi"])
# no digit, no whitespace and none of the letters of pi, nan, inf or the
# exponent e, so no run of these characters is a number
junk = st.text("bcdghjkmoqrsuvwxz!$%&*()[]{}<>?,;:'~|^+-/=", min_size=1)


class TestParseZeta:
    @given(k=st.none() | decimals, d=st.none() | decimals, pi=pi_words,
           gap=spaces, lead=spaces, trail=spaces)
    def test_pi_forms_match_the_float_formula(self, k, d, pi, gap, lead, trail):
        text = lead + (k + gap if k else "") + pi + (f"{gap}/{gap}{d}" if d else "") + trail
        coef = float(k) if k else 1.0
        div = float(d) if d else 1.0
        if div == 0.0:
            with pytest.raises(ConfigError):
                parse_zeta(text)
        else:
            assert parse_zeta(text) == coef * math.pi / div

    @given(prefix=st.sampled_from(["", "pi", "2pi/3", "0.5"]), tail=junk)
    def test_junk_rejected(self, prefix, tail):
        with pytest.raises(ConfigError):
            parse_zeta(prefix + tail)


KEYS = ["schema", "mode", "zeta", "steps", "realizations", "seed", "engine", "threads",
        "out_dir", "fit.n_lo", "fit.n_hi", "fit.d_lo", "fit.d_hi"]
# known keys with arbitrary values reach the value parsers, and after a
# valid mode and seed the fits too; one arbitrary line may follow, which
# may hold lone surrogates (written as bytes that are not valid UTF-8)
any_text = st.text(st.characters(blacklist_categories=()))
config_lines = st.builds(
    "{} = {}".format, st.sampled_from(KEYS),
    st.one_of(st.integers(0, 20).map(str), st.text(), st.integers().map(str),
              st.floats().map(repr), st.sampled_from(["none", "dynamical-spatial", "pi/2"])),
)
config_texts = st.builds(
    lambda valid, lines, extra: "\n".join(
        (["mode = none", "seed = 1"] if valid else []) + lines + ([extra] if extra else [])),
    st.booleans(), st.lists(config_lines, max_size=6), st.none() | any_text,
)


class TestFitManifestText:
    @pytest.fixture(scope="class")
    def fit_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fit")
        assert main(["run", "--mode", "none", "--zeta", "0", "--steps", "4",
                     "--realizations", "1", "--seed", "6", "--threads", "1",
                     "--out-dir", str(out)]) == 0
        return out

    @settings(deadline=None)
    @given(text=config_texts)
    def test_any_manifest_text_exits_0_2_or_3(self, fit_dir, text):
        manifest = fit_dir / "any.cfg"
        manifest.write_bytes(text.encode("utf-8", "surrogatepass"))
        code = main(["fit", str(fit_dir / "distributions.csv"), "--manifest", str(manifest),
                     "--out", str(fit_dir / "fits.json")])
        assert code in (0, 2, 3)
