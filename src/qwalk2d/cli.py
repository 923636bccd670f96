"""Command-line front end.

Subcommands: `run` simulates an ensemble and analyzes it, `oracle` runs the
exact averaged-channel evolver on a small lattice, `fit` re-analyzes stored
distribution CSVs without re-simulating.  Exit codes: 0 success, 2 bad
configuration, 3 I/O failure, 4 violated numerical invariant.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    AxisCuts,
    Distribution2D,
    axis_cuts,
    fit_localization,
    fit_scaling_exponent,
    variance_series,
)
from .ensemble import run_ensemble
from .errors import (
    AnalysisError,
    ConfigError,
    InvariantViolationError,
    LatticeOverflowError,
    PhaseCoverageError,
    TrajectoryFailure,
)
from .evolve import exact_run
from .io import (
    RunManifest,
    build_result_document,
    manifest_from_pairs,
    parse_manifest_text,
    read_distribution_csv,
    render_heatmap_svg,
    write_distribution_csv,
    write_manifest,
    write_result_json,
    write_variance_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

# flags that map one-for-one onto config file keys
_OVERRIDE_FLAGS = [
    ("--mode", "mode", "disorder mode: none, dynamical-spatial, static-spatial, dynamical-uniform"),
    ("--zeta", "zeta", "phase bound in radians; accepts pi expressions like pi/2"),
    ("--steps", "steps", "number of walk steps N"),
    ("--realizations", "realizations", "ensemble size R"),
    ("--seed", "seed", "64-bit master seed (required, never defaulted)"),
    ("--engine", "engine", "trajectory or exact"),
    ("--threads", "threads", "worker count; 1 is the serial reference path"),
    ("--out-dir", "out_dir", "artifact directory"),
    ("--fit-n-lo", "fit.n_lo", "scaling fit window start (step index)"),
    ("--fit-n-hi", "fit.n_hi", "scaling fit window end (default: steps)"),
    ("--fit-d-lo", "fit.d_lo", "localization fit window start (|coordinate|)"),
    ("--fit-d-hi", "fit.d_hi", "localization fit window end (default: steps - 6)"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk2d",
        description="2D discrete-time quantum walk with tunable dephasing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate an ensemble and analyze it")
    oracle_p = sub.add_parser("oracle", help="run the exact averaged-channel evolver")
    for p in (run_p, oracle_p):
        p.add_argument("--config", help="config file of key = value lines")
        for flag, _key, help_text in _OVERRIDE_FLAGS:
            if p is oracle_p and flag == "--engine":
                continue
            p.add_argument(flag, help=help_text)
        p.add_argument("--log-heatmap", action="store_true",
                       help="use a log color scale in the heatmap")
    run_p.set_defaults(handler=_cmd_run, force_engine=None)
    oracle_p.set_defaults(handler=_cmd_run, force_engine="exact")

    fit_p = sub.add_parser("fit", help="re-analyze a stored distribution CSV")
    fit_p.add_argument("distributions", help="distributions.csv produced by a run")
    fit_p.add_argument("--manifest", help="manifest file to echo the config from")
    fit_p.add_argument("--out", help="output JSON path (default: fits.json next to the input)")
    for flag, _key, help_text in _OVERRIDE_FLAGS:
        if flag.startswith("--fit-"):
            fit_p.add_argument(flag, help=help_text)
    fit_p.set_defaults(handler=_cmd_fit)
    return parser


def _flag_pairs(args) -> dict[str, str]:
    """Config keys set on the command line; flags a subcommand lacks are skipped."""
    pairs: dict[str, str] = {}
    for flag, key, _help in _OVERRIDE_FLAGS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if value is not None:
            pairs[key] = value
    return pairs


def _resolve_manifest(args, force_engine: str | None) -> RunManifest:
    pairs: dict[str, str] = {}
    if args.config:
        pairs.update(parse_manifest_text(Path(args.config).read_text()))
    pairs.update(_flag_pairs(args))
    if force_engine is not None:
        pairs["engine"] = force_engine
    return manifest_from_pairs(pairs)


def _compute_fits(variances, final_dist, manifest: RunManifest):
    n_lo, n_hi, d_lo, d_hi = manifest.resolved_fit_windows()
    try:
        scaling = fit_scaling_exponent(variances, n_lo, n_hi)
    except AnalysisError as exc:
        scaling = {"error": str(exc)}
    cuts: AxisCuts = axis_cuts(final_dist)
    fits = {}
    for name, profile in (("x", cuts.along_x), ("y", cuts.along_y)):
        try:
            fits[name] = fit_localization(cuts.coords, profile, d_lo, d_hi)
        except AnalysisError as exc:
            fits[name] = {"error": str(exc)}
    return scaling, fits["x"], fits["y"]


def _cmd_run(args) -> int:
    manifest = _resolve_manifest(args, args.force_engine)
    config = manifest.disorder_config()
    if manifest.engine not in ("trajectory", "exact"):
        raise ConfigError(f"unknown engine {manifest.engine!r}")
    threads = manifest.threads if manifest.threads is not None else (os.cpu_count() or 1)
    if manifest.engine == "trajectory":
        result = run_ensemble(config, threads=threads)
        dists = result.distributions()
        variances = result.variances
        stderrs = result.variance_stderr
    else:
        exact = exact_run(config)
        # negligible negative rounding from the channel is clipped so
        # downstream log fits and CSV writers see clean probabilities
        dists = [
            Distribution2D(exact.probabilities[n].clip(min=0.0), exact.half_width, n)
            for n in range(len(exact.probabilities))
        ]
        variances = exact.variances
        stderrs = None

    scaling, loc_x, loc_y = _compute_fits(variances, dists[-1], manifest)
    document = build_result_document(engine=manifest.engine, config=config,
                                     variances=variances, stderrs=stderrs,
                                     scaling=scaling, localization_x=loc_x,
                                     localization_y=loc_y)

    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(manifest, out_dir / "manifest.cfg")
    write_distribution_csv(dists, out_dir / "distributions.csv")
    write_variance_csv(variances, stderrs, out_dir / "variance.csv")
    write_result_json(document, out_dir / "result.json")
    render_heatmap_svg(dists[-1], out_dir / "heatmap.svg", log_scale=args.log_heatmap)

    final_v = float(variances[-1])
    print(f"V({config.steps}) = {final_v!r}")
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    dists = read_distribution_csv(args.distributions)
    pairs: dict[str, str] = {}
    config = None
    if args.manifest:
        pairs = parse_manifest_text(Path(args.manifest).read_text())
        config = manifest_from_pairs(pairs).disorder_config()
    # the fit windows default from the stored steps, not the manifest's
    manifest = manifest_from_pairs({**pairs, "steps": str(len(dists) - 1),
                                    **_flag_pairs(args)})

    stack = np.stack([d.probs for d in dists])
    variances = variance_series(stack, dists[0].half_width)
    scaling, loc_x, loc_y = _compute_fits(variances, dists[-1], manifest)
    document = build_result_document(engine="refit", config=config,
                                     variances=variances, stderrs=None,
                                     scaling=scaling, localization_x=loc_x,
                                     localization_y=loc_y)
    out = Path(args.out) if args.out else Path(args.distributions).parent / "fits.json"
    write_result_json(document, out)
    print(f"fits written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvariantViolationError, LatticeOverflowError,
            PhaseCoverageError, TrajectoryFailure) as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
