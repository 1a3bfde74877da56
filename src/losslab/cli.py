"""Command-line front end.

Subcommands:

    train      train one (loss, seed) pair from a config
    sweep      train the full loss x seed grid
    dump       write penultimate features of a saved model to a dump file
    analyze    write every analysis report enabled in the config
    report     write one named report (accuracy or any analysis)

Every subcommand takes --config; --out overrides the config's output
directory. Errors exit nonzero naming the failing (loss, seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness
from .checks import check_choice
from .config import ANALYSES, load_config
from .data import SPLITS


def _experiment(args):
    config = load_config(args.config)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    return config


def _pick_loss(config, name):
    names = tuple(n for n, _ in config.losses)
    name = names[0] if name is None else check_choice("loss", name, names)
    return config.losses[names.index(name)]


def cmd_train(args) -> int:
    config = _experiment(args)
    pair = _pick_loss(config, args.loss)
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    for summary in harness.run_all(replace(config, losses=(pair,))):
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_sweep(args) -> int:
    config = _experiment(args)
    for summary in harness.run_all(config, jobs=args.jobs):
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_dump(args) -> int:
    config = _experiment(args)
    n = harness.dump_activations(args.model, config.dataset, args.split, args.dump_out)
    print(f"wrote {args.dump_out}: {n} x penultimate features")
    return 0


def cmd_analyze(args) -> int:
    config = _experiment(args)
    for path in harness.write_reports(config):
        print(path)
    return 0


def cmd_report(args) -> int:
    config = _experiment(args)
    # metadata.json, written last, records the settings of this report
    for path in harness.write_reports(config, (args.kind,))[:-1]:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losslab",
        description="train small MLPs under different objectives and "
        "analyze what the losses do to representations and predictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="INI experiment config")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("train", help="train one loss under the config")
    common(p)
    p.add_argument("--loss", default=None, help="loss name (default: first)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="train the full loss x seed grid")
    common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel (loss, seed) workers")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dump", help="dump penultimate features of a model")
    common(p)
    p.add_argument("--model", required=True, help="model.npz path")
    p.add_argument("--split", choices=SPLITS, default="eval")
    p.add_argument("--dump-out", required=True, help="output dump path")
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("analyze", help="write all enabled analysis reports")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="write one named report")
    common(p)
    p.add_argument("--kind", choices=("accuracy",) + ANALYSES,
                   required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
