"""Command-line entry point.

Runs one experiment from a JSON config file, with flag overrides, and writes
rows to a file or stdout.  Failures exit nonzero and print a one-line JSON
diagnostic ({"error_category": ..., "message": ...}) to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    ConfigError,
    CovertqError,
    InfeasibleRateError,
    InstabilityError,
    OutputError,
    ParameterError,
    ResourceLimitError,
    StructuralError,
    UnsupportedLawError,
)
from .harness import EXPERIMENTS, ExperimentConfig, emit, run

_EXIT_CODES = (
    ((ConfigError, ParameterError, StructuralError), 2),
    ((InstabilityError,), 3),
    ((ResourceLimitError,), 4),
    ((InfeasibleRateError,), 5),
    ((UnsupportedLawError,), 6),
    ((OutputError,), 7),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertq",
        description="Covert queueing timing-channel experiments",
    )
    parser.add_argument("--config", help="JSON config file (see README for the schema)")
    parser.add_argument("--experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--trials", type=int, help="trial-count override")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "jsonlines"), help="output format")
    parser.add_argument("--workers", type=int, help="parallel parameter-point workers")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    payload = ExperimentConfig.load_payload(args.config) if args.config else {}
    overrides = {
        "experiment": args.experiment,
        "master_seed": args.seed,
        "trials": args.trials,
        "output_path": args.out,
        "output_format": args.format,
        "workers": args.workers,
    }
    payload.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(payload)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        rows = run(config)
        if config.output_path:
            emit(rows, config.output_path, config.output_format)
        try:
            if config.output_path:
                print(f"wrote {len(rows)} rows to {config.output_path}", flush=True)
            else:
                emit(rows, None, "jsonlines")
        except (OSError, OutputError) as exc:
            # a closed stdout: Python's flush at exit would fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise exc if isinstance(exc, OutputError) else OutputError(
                f"cannot write to stdout: {exc}")
        return 0
    except CovertqError as exc:
        print(
            json.dumps({"error_category": exc.category, "message": str(exc)}),
            file=sys.stderr,
        )
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
