"""Command line front end.

Usage:
    mg-spectra <experiment> [--config FILE] [--out DIR] [--threads N]
    mg-spectra symbol-table [--n N] [--out FILE]
    mg-spectra plot-data --results DIR [--out FILE]

Exit status is 0 only when every check of the experiment passed, and 2
for a usage error: a config that fails validation, or one the run finds
it cannot serve (a sweep box with no unstable mode, say).  Thread
count comes from --threads, else the MG_SPECTRA_THREADS environment
variable, else 1, and is capped at the number of CPUs the process may
run on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments, symbols
from .params import PhysicalParams

_ENV_THREADS = "MG_SPECTRA_THREADS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mg-spectra",
        description="experiments for the magneto-geostrophic spectral lab")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in experiments.EXPERIMENT_NAMES:
        p = sub.add_parser(name, help="run the %s experiment" % name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=None,
                       help="output directory (default: ./out/<experiment>)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads, at most the usable CPUs "
                       "(default: %s or 1)" % _ENV_THREADS)
        p.add_argument("--validate-only", action="store_true",
                       help="check the config and exit without running")

    p = sub.add_parser("symbol-table",
                       help="dump multiplier symbol values to CSV")
    p.add_argument("--n", type=int, default=4, help="max |k_i| (default 4)")
    p.add_argument("--out", default="symbols.csv", help="output CSV path")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0)

    p = sub.add_parser("plot-data",
                       help="flatten results into plot-ready long CSV")
    p.add_argument("--results", required=True,
                   help="directory holding summary.json and results.csv")
    p.add_argument("--out", default="plot.csv", help="output CSV path")
    return parser


def _resolve_threads(arg_value) -> int:
    """The thread count, from 1 up to the CPUs this process may run on."""
    env = os.environ.get(_ENV_THREADS)
    try:
        value = int(arg_value if arg_value is not None else env or 1)
    except ValueError:
        raise SystemExit("%s must be an integer, got %r" % (_ENV_THREADS, env))
    return min(max(1, value), len(os.sched_getaffinity(0)))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "symbol-table":
        phys = PhysicalParams.from_mu(omega=args.omega, mu=args.mu)
        symbols.symbol_table_csv(args.out, args.n, phys)
        print("wrote %s" % args.out)
        return 0

    if args.command == "plot-data":
        try:
            experiments.emit_plot_data(args.results, args.out)
        except FileNotFoundError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        except experiments.ExperimentError as exc:
            parser.exit(2, "usage error: %s\n" % exc)
        print("wrote %s" % args.out)
        return 0

    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except FileNotFoundError:
            print("error: config file %s not found" % args.config,
                  file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print("error: config is not valid JSON: %s" % exc,
                  file=sys.stderr)
            return 2

    try:
        experiments.validate_config(args.command, config)
    except experiments.ExperimentError as exc:
        parser.exit(2, "usage error: %s\n" % exc)
    if args.validate_only:
        print("config ok")
        return 0

    out_dir = args.out
    if out_dir is None:
        out_dir = config.get("out") or os.path.join("out", args.command)
    threads = _resolve_threads(args.threads)

    try:
        result = experiments.run_experiment(args.command, config, out_dir,
                                            threads)
    except experiments.ExperimentError as exc:
        parser.exit(2, "usage error: %s\n" % exc)
    for check in result.checks:
        status = "PASS" if check["passed"] else "FAIL"
        print("[%s] %s  measured=%s  tolerance=%s"
              % (status, check["name"], check["measured"],
                 check["tolerance"]))
    print("results: %s" % os.path.join(out_dir, "results.csv"))
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
