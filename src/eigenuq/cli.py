"""Command-line interface.

Subcommands: baseline, train, uq, propagate-dns, report.
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 data error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import pipeline
from .channel import PerturbationInjection, SolverError
from .dns import TARGET_NAMES
from .pipeline import ConfigError, DataError


def _add_common(sub, re_tau=True):
    """--config, --out and --re-tau. The dest of an override flag is the
    settings key it sets, "section.key"; a command has those it reads."""
    sub.add_argument("--config", help="INI configuration file")
    sub.add_argument("--out", required=True, help="output directory")
    if re_tau:
        sub.add_argument("--re-tau", dest="channel.re_tau", metavar="RE_TAU", type=float,
                         help="override channel.re_tau")


@functools.cache  # once per process, on the first run: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eigenuq", description="Eigenspace-perturbation "
                                     "uncertainty quantification for RANS turbulence models")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("baseline", help="converge and export the baseline channel flow")
    _add_common(p)

    p = subs.add_parser("train", help="train a perturbation-target forest")
    _add_common(p, re_tau=False)
    p.add_argument("--target", default="p", choices=list(TARGET_NAMES),
                   help="target kind (default: p)")
    p.add_argument("--seed", dest="train.seed", metavar="SEED", type=int,
                   help="override train.seed")

    p = subs.add_parser("uq", help="run the three-corner UQ envelope")
    _add_common(p)
    p.add_argument("--mode", dest="uq.mode", choices=list(PerturbationInjection.TAKES),
                   help="override uq.mode, the perturbation mode")
    p.add_argument("--delta-b", dest="uq.delta_b", metavar="DELTA_B", type=float,
                   help="override uq.delta_b, the data-free perturbation magnitude")
    p.add_argument("--forest", help="forest JSON file for data-driven modes")

    p = subs.add_parser(
        "propagate-dns", help="propagate frozen reference stresses through the solver"
    )
    _add_common(p)
    p.add_argument("--dns", help="reference profile file (default: [data] config)")
    p.add_argument("--noise", dest="propagate.noise", metavar="NOISE", type=float,
                   help="override propagate.noise, the relative shear-stress noise amplitude")
    p.add_argument("--seed", dest="propagate.noise_seed", metavar="SEED", type=int,
                   help="override propagate.noise_seed")

    p = subs.add_parser("report", help="aggregate completed run directories")
    p.add_argument("runs", nargs="+", help="run directories with manifests")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # commands create --out after their solves: what would stop that is rejected first
    if not args.out:
        raise ConfigError("output path is empty")
    ancestor = args.out  # the nearest that exists; "" for the working directory
    while ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        where = "exists" if ancestor == args.out else f"lies under {ancestor}, which exists"
        raise ConfigError(f"output path {args.out} {where} and is not a directory")
    if args.command == "report":
        if os.path.isdir(args.out) and any(
                os.path.exists(d) and os.path.samefile(d, args.out) for d in args.runs):
            raise ConfigError(f"output path {args.out} is one of the runs to report")
        return pipeline.cmd_report(args.runs, args.out)

    settings = pipeline.load_settings(
        args.config, [(*key.split("."), value) for key, value in vars(args).items() if "." in key])
    if args.command == "baseline":
        return pipeline.cmd_baseline(settings, args.out)
    if args.command == "train":
        return pipeline.cmd_train(settings, args.out, args.target)
    if args.command == "uq":
        return pipeline.cmd_uq(settings, args.out, forest_path=args.forest,
                               delta_b=getattr(args, "uq.delta_b"))
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
