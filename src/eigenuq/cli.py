"""Command-line interface.

Subcommands: baseline, train, uq, propagate-dns, report.
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 data error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline
from .channel import PerturbationInjection, SolverError
from .dns import TARGET_NAMES
from .pipeline import ConfigError, DataError


def _add_common(sub):
    sub.add_argument("--config", help="INI configuration file")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--re-tau", type=float, help="override channel.re_tau")
    sub.add_argument("--seed", type=int, help="override train.seed / propagate.noise_seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenuq",
        description="Eigenspace-perturbation uncertainty quantification "
        "for RANS turbulence models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("baseline", help="converge and export the baseline channel flow")
    _add_common(p)

    p = subs.add_parser("train", help="train a perturbation-target forest")
    _add_common(p)
    p.add_argument(
        "--target",
        default="p",
        choices=list(TARGET_NAMES),
        help="target kind (default: p)",
    )

    p = subs.add_parser("uq", help="run the three-corner UQ envelope")
    _add_common(p)
    p.add_argument(
        "--mode",
        choices=list(PerturbationInjection.TAKES),
        help="perturbation mode (default from config)",
    )
    p.add_argument("--delta-b", type=float, help="data-free perturbation magnitude")
    p.add_argument("--forest", help="forest JSON file for data-driven modes")

    p = subs.add_parser(
        "propagate-dns", help="propagate frozen reference stresses through the solver"
    )
    _add_common(p)
    p.add_argument("--dns", help="reference profile file (default: [data] config)")
    p.add_argument("--noise", type=float, help="relative shear-stress noise amplitude")

    p = subs.add_parser("report", help="aggregate completed run directories")
    p.add_argument("runs", nargs="+", help="run directories with manifests")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # commands create --out only after their solves: a file in its way is rejected first
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise ConfigError(f"output path {args.out} exists and is not a directory")
    if args.command == "report":
        return pipeline.cmd_report(args.runs, args.out)

    overrides = []
    if args.re_tau is not None:
        overrides.append(("channel", "re_tau", args.re_tau))
    if args.seed is not None:
        overrides.append(("train", "seed", args.seed))
        overrides.append(("propagate", "noise_seed", args.seed))
    if args.command == "uq":
        overrides += [("uq", "mode", args.mode), ("uq", "delta_b", args.delta_b)]
    if args.command == "propagate-dns":
        overrides.append(("propagate", "noise", args.noise))
    settings = pipeline.load_settings(args.config, overrides)

    if args.command == "baseline":
        return pipeline.cmd_baseline(settings, args.out)
    if args.command == "train":
        return pipeline.cmd_train(settings, args.out, args.target)
    if args.command == "uq":
        return pipeline.cmd_uq(settings, args.out, forest_path=args.forest, delta_b=args.delta_b)
    if args.command == "propagate-dns":
        return pipeline.cmd_propagate_dns(settings, args.out, dns_path=args.dns)
    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    try:
        sys.exit(run())
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        sys.exit(pipeline.EXIT_CONFIG)
    except SolverError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        sys.exit(pipeline.EXIT_NUMERICAL)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        sys.exit(pipeline.EXIT_DATA)


if __name__ == "__main__":
    main()
