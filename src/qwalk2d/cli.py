"""Command-line front end.

Subcommands: `run` simulates an ensemble with the trajectory engine and
analyzes it, `oracle` runs the exact averaged-channel evolver on a small
lattice, `fit` re-analyzes stored distribution CSVs without re-simulating.
The subcommand picks the engine, that is the runner (run_ensemble or
exact_run); both return a WalkResult, and one path writes its artifacts
from the result's per-step sublattice windows: the CSV rows come from the
windows, and only the last step is scattered onto a (2N+1)^2 grid, for
the axis cuts and the heatmap; `fit` reads the CSV back into such windows
(N is its last step), so no subcommand builds a dense (N+1, 2N+1, 2N+1)
stack.  A run's threads (its `threads` setting, else the CPUs the process
may use) also bound the processes that format the distributions CSV (see
io._write_grids); `fit` parses the CSV on up to as many processes as the
CPUs it may use (see io._parsed_columns).  All three subcommands end in
one tail, _fit_and_write, which fits V(n) and the final distribution and
writes the result document.  Each other RunManifest setting has a flag
named after its config key (`fit.n_lo` is `--fit-n-lo`; `fit` takes only
the `fit.*` ones).  Exit codes: 0 success, 2 bad configuration (a
malformed file line or value, schema not 1, engine neither trajectory nor
exact, a window buffer of sum_n (n + 1)^2 values, n up to a run's N or a
CSV's last step, too large to allocate), 3 I/O failure, 4 violated
numerical invariant.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import Distribution2D, axis_cuts, fit_localization, fit_scaling_exponent
from .ensemble import run_ensemble
from .errors import (
    AnalysisError,
    ConfigError,
    InvariantViolationError,
    LatticeOverflowError,
    PhaseCoverageError,
    TrajectoryFailure,
)
from .evolve import exact_run, scatter_window, window_variances
from .io import (
    RunManifest,
    build_result_document,
    manifest_from_pairs,
    read_distribution_windows,
    read_manifest_pairs,
    render_heatmap_svg,
    write_manifest,
    write_result_json,
    write_variance_csv,
    write_window_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


def _add_setting_flags(parser: argparse.ArgumentParser, prefix: str = "") -> None:
    """A flag for each RunManifest setting that has flag help and a key
    starting with prefix: the key with '.' and '_' turned into '-'."""
    for setting in fields(RunManifest):
        key, help_text = setting.metadata["key"], setting.metadata["help"]
        if help_text and key.startswith(prefix):
            parser.add_argument("--" + key.replace(".", "-").replace("_", "-"),
                                dest=setting.name, help=help_text)


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
        _add_setting_flags(p)
        p.add_argument("--log-heatmap", action="store_true",
                       help="use a log color scale in the heatmap")
    run_p.set_defaults(handler=_cmd_run, engine="trajectory", runner=run_ensemble)
    oracle_p.set_defaults(handler=_cmd_run, engine="exact",
                          runner=lambda config, threads: exact_run(config))

    fit_p = sub.add_parser("fit", help="re-analyze a stored distribution CSV")
    fit_p.add_argument("distributions", help="distributions.csv produced by a run")
    fit_p.add_argument("--manifest", help="manifest file to echo the config from")
    fit_p.add_argument("--out", help="output JSON path (default: fits.json next to the input)")
    _add_setting_flags(fit_p, "fit.")
    fit_p.set_defaults(handler=_cmd_fit)
    return parser


def _flag_pairs(args) -> dict[str, str]:
    """Config keys set on the command line; flags a subcommand lacks are skipped."""
    pairs: dict[str, str] = {}
    for setting in fields(RunManifest):
        value = getattr(args, setting.name, None)
        if setting.metadata["help"] and value is not None:
            pairs[setting.metadata["key"]] = value
    return pairs


def _fit_and_write(path, manifest: RunManifest, engine: str, config, variances, stderrs,
                   final_dist: Distribution2D) -> None:
    """Fit the variance series and the final distribution's axis cuts in
    the manifest's windows, and write the result document to path."""
    n_lo, n_hi, d_lo, d_hi = manifest.resolved_fit_windows()
    try:
        scaling = fit_scaling_exponent(variances, n_lo, n_hi)
    except AnalysisError as exc:
        scaling = {"error": str(exc)}
    cuts = axis_cuts(final_dist)
    fits = {}
    for name, profile in (("x", cuts.along_x), ("y", cuts.along_y)):
        try:
            fits[name] = fit_localization(cuts.coords, profile, d_lo, d_hi)
        except AnalysisError as exc:
            fits[name] = {"error": str(exc)}
    document = build_result_document(engine=engine, config=config, variances=variances,
                                     stderrs=stderrs, scaling=scaling,
                                     localization_x=fits["x"], localization_y=fits["y"])
    write_result_json(document, path)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one (a taskset or a container limit narrows it), else
    every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_run(args) -> int:
    pairs = read_manifest_pairs(args.config) if args.config else {}
    manifest = manifest_from_pairs({**pairs, **_flag_pairs(args)})
    manifest.engine = args.engine  # the subcommand picks it; a file's engine is only checked
    config = manifest.disorder_config()
    threads = manifest.threads if manifest.threads is not None else _usable_cpus()
    result = args.runner(config, threads)
    final = result.distribution(config.steps)

    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(manifest, out_dir / "manifest.cfg")
    write_window_csv(result.windows, out_dir / "distributions.csv", threads)
    write_variance_csv(result.variances, result.variance_stderr, out_dir / "variance.csv")
    _fit_and_write(out_dir / "result.json", manifest, manifest.engine, config,
                   result.variances, result.variance_stderr, final)
    render_heatmap_svg(final, out_dir / "heatmap.svg", log_scale=args.log_heatmap)

    print(f"V({config.steps}) = {float(result.variances[-1])!r}")
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    windows = read_distribution_windows(args.distributions, _usable_cpus())
    pairs = read_manifest_pairs(args.manifest) if args.manifest else {}
    config = manifest_from_pairs(pairs).disorder_config() if args.manifest else None
    manifest = manifest_from_pairs({**pairs, **_flag_pairs(args)})
    # the fit windows default from the stored steps (0 for a lone step 0),
    # not the manifest's; the last step is also the half width, as in a run
    manifest.steps = len(windows) - 1
    out = Path(args.out) if args.out else Path(args.distributions).parent / "fits.json"
    _fit_and_write(out, manifest, "refit", config, window_variances(windows, manifest.steps),
                   None, scatter_window(windows[-1], manifest.steps))
    print(f"fits written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, AnalysisError) as exc:
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
