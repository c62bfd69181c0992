"""Command-line entry point.

One subcommand per pipeline stage plus ``run`` for the whole bundle.  Every
subcommand takes ``--config`` (key=value file; see README) and one
``--field-name`` flag per config field, which takes precedence over the
file.  Exit codes: 0 on success, 2 for configuration problems, 1 for stage
failures (message is prefixed with the failing stage).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from .pipeline import FIELD_TYPES, STAGE_ORDER, ConfigError, PipelineConfig, StageError, run_pipeline, run_stage

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stancelab",
        description="Stance-group detection and polarization metrics for tweet corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, type=Path, help="key=value config file")
    for f in fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        if FIELD_TYPES[f.name] is bool:
            common.add_argument(flag, action=argparse.BooleanOptionalAction, help=f"override {f.name}")
        else:
            common.add_argument(flag, metavar="VALUE", help=f"override {f.name}")

    sub.add_parser("run", parents=[common], help="run every stage and write the report bundle")
    for stage in STAGE_ORDER:
        sub.add_parser(stage, parents=[common], help=f"run the {stage} stage against the output directory")
    return parser


def load_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file with each given flag in place of its field.

    A relative path in the file resolves against the file's directory, one
    on the command line against the working directory.
    """
    cfg = PipelineConfig.from_file(args.config)
    overrides = {}
    for f in fields(PipelineConfig):
        value = getattr(args, f.name)
        if isinstance(value, str):  # every flag but the true/false ones
            overrides[f.name] = PipelineConfig.parse_value(f.name, value, Path.cwd())
        elif value is not None:
            overrides[f.name] = value
    return replace(cfg, **overrides)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            out = run_pipeline(cfg)
            print(f"report bundle written to {out}")
        else:
            run_stage(args.command, cfg)
            print(f"stage {args.command} complete in {cfg.output_dir}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"stage {exc.stage} failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
