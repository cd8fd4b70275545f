"""Command-line entry point: ``bosonet <experiment> --config FILE [...]``.

The experiment name selects a recipe, the JSON config file carries the sweep
description, and the three optional flags override the file: ``--seed``,
``--chi``, and ``--out`` take precedence over config values, which take
precedence over defaults.

Exit codes: 0 success; 1 usage or configuration error; 2 numerical-integrity
failure (a degraded or numerically inconsistent state, or an oracle-check
deviation above tolerance); 3 resource abort (wall-clock budget exhausted —
the finished units' rows are written; with ``checkpoint_every`` above 0 their
records are kept under ``checkpoints/``, so a rerun resumes after them).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    EXPERIMENTS,
    ConfigError,
    config_from_dict,
    run_to_files,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bosonet",
        description="Tensor-network boson sampling experiments.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="recipe to run (must match the config file if set there)")
    parser.add_argument("--config", required=True, metavar="FILE",
                        help="JSON experiment configuration")
    parser.add_argument("--seed", type=int, metavar="S",
                        help="override the master seed")
    parser.add_argument("--chi", type=int, metavar="X",
                        help="override the bond-dimension budget chi_max (only an "
                             "experiment that reads chi_max takes it)")
    parser.add_argument("--out", metavar="DIR",
                        help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"bosonet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"bosonet: cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"bosonet: config {args.config} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(doc, dict):
        print(f"bosonet: config {args.config} must hold a JSON object", file=sys.stderr)
        return EXIT_USAGE

    if "experiment" in doc and doc["experiment"] != args.experiment:
        print(
            f"bosonet: config names experiment {doc['experiment']!r} "
            f"but {args.experiment!r} was requested",
            file=sys.stderr,
        )
        return EXIT_USAGE
    doc["experiment"] = args.experiment
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.chi is not None:
        doc["chi_max"] = args.chi
    if args.out is not None:
        doc["out_dir"] = args.out

    try:
        config = config_from_dict(doc)
        record, out_dir = run_to_files(config)
    except ConfigError as exc:
        print(f"bosonet: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if record.message:
        print(record.message)
    print(
        f"{record.experiment}: {len(record.rows)} rows, "
        f"config {record.config_hash}, {record.wall_time:.2f}s"
    )
    if out_dir is not None:
        print(f"outputs in {out_dir}")

    if record.status == "ok":
        return EXIT_OK
    if record.status == "aborted":
        resumable = out_dir is not None and config.checkpoint_every > 0
        print("bosonet: wall-clock budget exhausted" + (
            f"; a rerun resumes after the units recorded in {out_dir / 'checkpoints'}"
            if resumable else ""), file=sys.stderr)
        return EXIT_RESOURCE
    print(f"bosonet: {record.status}: {record.message}", file=sys.stderr)
    return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
