"""Command-line interface: run experiments, validate configs, run oracles."""

import argparse
import sys

from .config import config_text, load_config
from .exceptions import CfrisError
from .experiment import COMBINERS, SCENARIOS, ExperimentSpec, emit_report, run_experiment


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cfris",
        description="Uplink Monte Carlo simulator for cell-free massive MIMO "
        "with RIS-integrated antenna arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo experiment and write CSV reports")
    _add_config_flags(run)
    run.add_argument(
        "--scenario",
        action="append",
        choices=SCENARIOS,
        help="scenario to simulate (repeatable; default: all four)",
    )
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--threads", type=int, default=1, help="maximum number of parallel worker processes")
    run.add_argument("--combiner", choices=COMBINERS, default="pmmse")
    run.add_argument("--setups", type=int, help="override mc_setups")
    run.add_argument("--blocks", type=int, help="override mc_channel_realizations")

    validate = sub.add_parser("validate", help="check a configuration file")
    _add_config_flags(validate)

    sub.add_parser("oracle", help="run the independent consistency oracles")
    return parser


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--seed", type=int, help="override the RNG seed")


def _load(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "setups", None) is not None:
        overrides["mc_setups"] = args.setups
    if getattr(args, "blocks", None) is not None:
        overrides["mc_channel_realizations"] = args.blocks
    return load_config(args.config, overrides)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = _load(args)
            print("configuration ok")
            for line in config_text(cfg).splitlines():
                print(f"  {line}")
            return 0
        if args.command == "oracle":
            from .oracles import run_all

            failures = 0
            for name, ok, detail in run_all():
                print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
                failures += 0 if ok else 1
            return 1 if failures else 0
        cfg = _load(args)
        scenarios = tuple(args.scenario) if args.scenario else SCENARIOS
        spec = ExperimentSpec(cfg=cfg, scenarios=scenarios, combiner=args.combiner, threads=args.threads)
        report = run_experiment(spec)
        paths = emit_report(report, args.out)
        for name in report.scenarios:
            print(f"{name}: median SE {report.median(name):.4f} bit/s/Hz, "
                  f"10th percentile {report.percentile(name, 10):.4f}")
        for path in paths:
            print(f"wrote {path}")
        return 0
    except (CfrisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
