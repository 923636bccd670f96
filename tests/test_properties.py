"""Property tests: the walk unitary that both engines share, the phase
window a step is handed, the manifest text format, zeta parsing,
`qwalk2d fit` on arbitrary manifest text, and the distributions CSV reader,
in one process and in parts, against the row-by-row reader it replaced."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk2d import (
    ConfigError,
    Distribution2D,
    DisorderConfig,
    DisorderMode,
)
from qwalk2d.disorder import PhaseMatrix, PhaseSampler
from qwalk2d.evolve import DensityState, exact_step_density, scatter_window
from qwalk2d.state import (
    COIN_H,
    COIN_V,
    WalkState,
    _coin_grow,
    _grow,
    apply_coin,
    apply_shift_x,
    apply_shift_y,
)
import qwalk2d.io as io_mod
from qwalk2d.cli import main
from qwalk2d.io import (
    RunManifest,
    _parsed_columns,
    manifest_from_pairs,
    manifest_to_text,
    parse_manifest_text,
    parse_zeta,
    read_distribution_csv,
    read_distribution_windows,
    write_distribution_csv,
)
from conftest import full_grid_step, random_state
from reference import read_distribution_csv as reference_read_distribution_csv
from reference import write_distribution_csv as reference_write_distribution_csv

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
        out = full_grid_step(psi, PhaseMatrix(np.float64(0.0))).amps.reshape(-1)
        want = np.outer(out, out.conj())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(seed=seeds, half_width=half_widths)
    def test_norm_preserved(self, seed, half_width):
        rng = np.random.default_rng(seed)
        psi = random_state(rng, half_width)
        size = 2 * half_width + 1
        phases = PhaseMatrix(rng.uniform(-np.pi, np.pi, size=(size, size)))
        assert abs(full_grid_step(psi, phases).norm() - 1.0) <= 1e-12
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
        grown = _grow(psi, -3).amps
        cropped = np.stack([grown[1:, :, COIN_H], grown[:-1, :, COIN_V]], axis=-1)
        np.testing.assert_array_equal(apply_shift_x(psi).amps, cropped)
        grown = _grow(psi, -2).amps
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
        for op in (apply_coin, lambda s: _grow(s, -3), lambda s: _grow(s, -2)):
            stacked = op(stack).amps
            for b, state in enumerate(states):
                np.testing.assert_array_equal(stacked[b], op(state).amps)


def bits(a):
    """The bytes of an array, so -0.0 and 0.0 (and NaN payloads) differ."""
    return np.ascontiguousarray(a).view(np.uint8)


class TestFusedCoinShift:
    finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)

    @settings(deadline=None, max_examples=200)
    @given(batch=st.lists(st.integers(1, 3), min_size=0, max_size=3),
           size=st.integers(1, 6), transposed=st.booleans(), data=st.data())
    def test_equals_the_coin_then_the_grow_kernel(self, batch, size, transposed, data):
        # 0 to 3 leading batch axes (the oracle uses 3); transposed, the
        # stack is a strided view, as the oracle's ket side is
        shape = tuple(batch) + (size, size, 2)
        parts = [np.array(data.draw(st.lists(self.finite, min_size=math.prod(shape),
                                             max_size=math.prod(shape))))
                 .reshape(shape) for _ in range(2)]
        amps = parts[0] + 1j * parts[1]
        if transposed:
            lead, last = list(range(len(batch))), list(range(-len(batch), 0))
            amps = np.moveaxis(np.ascontiguousarray(np.moveaxis(amps, lead, last)), last, lead)
        state = WalkState(amps, size - 1)
        for axis in (-3, -2):
            fused = _coin_grow(state.amps, axis)
            want = _grow(apply_coin(state), axis).amps
            assert fused.shape == want.shape
            np.testing.assert_array_equal(bits(fused), bits(want))


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


# edits of the text of one field, on any line
FIELD_EDITS = {
    "spaces": lambda f: f" {f} ",
    "tab": lambda f: f"\t{f}",
    "plus": lambda f: "+" + f,
    "underscore": lambda f: f[:1] + "_" + f[1:],
    "quotes": lambda f: f'"{f}"',
    "point zero": lambda f: f + ".0",
    "empty": lambda f: "",
    # np.loadtxt reads these where int() and float() do not: an ASCII
    # separator, and the byte 0xa0, which is no UTF-8 but is a latin-1 space
    # (written through surrogateescape)
    "file separator": lambda f: f + "\x1c",
    "byte 0xa0": lambda f: f + "\udca0",
    # integers past int64, which int() parses and np.loadtxt does not
    "past int64": lambda f: str(2**64),
    "below int64": lambda f: str(-2**64 - 1),
}


def _set(column, value):
    """A line edit that sets one column of line k (a line that has it)."""
    def edit(lines, k, m):
        fields = lines[k].split(",")
        if column < len(fields):
            fields[column] = value(fields[column])
        return lines[:k] + [",".join(fields)] + lines[k + 1:]
    return edit


# edits of the lines: each takes the lines and two line positions
LINE_EDITS = {
    "blank line": lambda lines, k, m: lines[:k] + [""] + lines[k:],
    "space line": lambda lines, k, m: lines[:k] + [" "] + lines[k:],
    "tab line": lambda lines, k, m: lines[:k] + ["\t"] + lines[k:],
    "repeat": lambda lines, k, m: lines[:m] + lines[k:k + 1] + lines[m:],
    "swap": lambda lines, k, m: [lines[m] if n == k else lines[k] if n == m else line
                                 for n, line in enumerate(lines)],
    "reverse": lambda lines, k, m: lines[:1] + lines[:0:-1],
    "delete": lambda lines, k, m: lines[:k] + lines[k + 1:],
    "extra field": lambda lines, k, m: lines[:k] + [lines[k] + ",7"] + lines[k + 1:],
    "missing field": lambda lines, k, m: lines[:k] + [lines[k].rsplit(",", 1)[0]] + lines[k + 1:],
    "carriage return": lambda lines, k, m: lines[:k] + [lines[k] + "\r"] + lines[k + 1:],
    "later step": _set(0, lambda f: "9"),
    "negative step": _set(0, lambda f: "-1"),
    "i outside": _set(1, lambda f: "9"),
    "j outside": _set(2, lambda f: "-9"),
    "i at int64 min": _set(1, lambda f: str(-2**63)),
    "negative p": _set(3, lambda f: "-" + f),
    "nan p": _set(3, lambda f: "nan"),
    "inf p": _set(3, lambda f: "inf"),
}


class TestDistributionCsvWriter:
    @settings(deadline=None, max_examples=200)
    @given(seed=seeds, n_steps=st.integers(0, 4), power=st.integers(1, 200))
    def test_same_bytes_as_the_row_by_row_writer(self, tmp_path_factory, seed, n_steps, power):
        # powers of uniform values reach from 1 into the subnormal range, next
        # to zeros of both signs, which both writers omit; so every repr form
        # (plain, exponent, subnormal) occurs
        rng = np.random.default_rng(seed)
        size = 2 * n_steps + 1
        dists = []
        for n in range(n_steps + 1):
            probs = rng.random((size, size)) ** power * rng.choice([-1.0, 0.0, 1.0], (size, size))
            probs[n_steps, n_steps] = 1.0
            probs /= probs[probs > 0].sum()
            probs[probs < 0] = -0.0
            dists.append(Distribution2D(probs, n_steps, n))
        folder = tmp_path_factory.mktemp("csv")
        write_distribution_csv(dists, folder / "new.csv")
        reference_write_distribution_csv(dists, folder / "old.csv")
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


class TestDistributionCsvReader:
    """read_distribution_csv against the row-by-row reader it replaced
    (reference.py): on any file, both return the same grids and half widths,
    or raise the same error with the same message.  Read in up to three
    parts of at least one line each, so that cuts land next to bad rows,
    read_distribution_windows gives the outcome of both.  The files are
    written from distributions on the parity sublattice, as a walk's are,
    so the writer's output takes the fast path."""

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("csv") / "d.csv"

    @staticmethod
    def outcome(reader, path):
        try:
            dists = reader(path)
        except Exception as exc:  # any error: its type and message are compared
            return type(exc), str(exc)
        return [(d.step, d.half_width, d.probs.tobytes()) for d in dists]

    @staticmethod
    def read_in_parts(path):
        windows = read_distribution_windows(path, 3)
        return [scatter_window(window, len(windows) - 1) for window in windows]

    @settings(deadline=None, max_examples=500)
    @given(seed=seeds, n_steps=st.integers(0, 3), data=st.data())
    def test_mutated_files_read_as_the_row_loop_reads_them(self, csv_path, seed, n_steps, data):
        self.check_mutated_file(csv_path, seed, n_steps, data, parts=1)

    @settings(deadline=None, max_examples=500)
    @given(seed=seeds, n_steps=st.integers(0, 3), data=st.data())
    def test_mutated_files_read_in_parts_as_the_row_loop_reads_them(self, csv_path, seed,
                                                                    n_steps, data):
        self.check_mutated_file(csv_path, seed, n_steps, data, parts=3)

    def check_mutated_file(self, csv_path, seed, n_steps, data, parts):
        """A writer-made file of n_steps + 1 random steps, one or two random
        edits, then the outcome of reading it in one process and, for parts
        > 1, in that many parts, against the reference reader's."""
        rng = np.random.default_rng(seed)
        size = 2 * n_steps + 1
        dists = []
        for n in range(n_steps + 1):
            probs = np.zeros((size, size))
            lo, hi = n_steps - n, n_steps + n + 1
            # the sites i = j = n (mod 2) of the light cone, where a walk can be
            probs[lo:hi:2, lo:hi:2] = rng.random((n + 1, n + 1)) ** 4
            probs[lo, lo] += 0.01  # never empty
            dists.append(Distribution2D(probs / probs.sum(), n_steps, n))
        write_distribution_csv(dists, csv_path)
        assert _parsed_columns(csv_path) is not None  # the writer's output takes the fast path
        lines = csv_path.read_text().splitlines()
        edits = data.draw(st.lists(st.sampled_from(sorted(FIELD_EDITS) + sorted(LINE_EDITS)),
                                   min_size=1, max_size=2))
        for edit in edits:
            if not lines:
                break
            # line 0 is the header, which the edits may hit too
            k, m = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            if edit in FIELD_EDITS:
                column = data.draw(st.integers(0, lines[k].count(",")))
                lines = _set(column, FIELD_EDITS[edit])(lines, k, m)
            else:
                lines = LINE_EDITS[edit](lines, k, m)
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        csv_path.write_bytes((end.join(lines) + end).encode("utf-8", "surrogateescape"))
        want = self.outcome(reference_read_distribution_csv, csv_path)
        assert self.outcome(read_distribution_csv, csv_path) == want
        if parts > 1:
            with mock.patch.object(io_mod, "MIN_PART_ROWS", 1):
                assert self.outcome(self.read_in_parts, csv_path) == want
