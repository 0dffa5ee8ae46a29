"""Command-line batch runner.

Subcommands map one-to-one onto the experiment suites; each run reads one
config file, executes the suite, and writes one self-contained report to the
output path (standard output by default).  Exit codes: 0 when every cell
meets its contract, 2 on configuration errors, 3 when the runner found
contract violations: each is listed on standard error, every failing cell
with its failing checks, then every false ``*_ok`` summary flag.

The argument parser is built once per process and shared by every ``main``
call; each call parses into a fresh namespace, so nothing carries over.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import OUTPUT_FORMATS, ExperimentConfig, _parse_integer, check_tolerance
from .errors import ConfigInvalid
from .report import render
from .runner import SUITES


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylscale",
        description="Batch experiments on Weyl-algebra states under Planck-constant rescaling.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, suite in SUITES.items():
        sub = subparsers.add_parser(name, help=suite.__doc__.splitlines()[0])
        sub.add_argument("--config", required=True, help="path to the YAML experiment config")
        sub.add_argument("--out", default=None, help="report path (default: standard output)")
        sub.add_argument("--format", choices=OUTPUT_FORMATS, default=None, help="report format override")
        sub.add_argument("--seed", type=int, default=None, help="random seed override")
        sub.add_argument(
            "--tol", type=float, default=None, help="override for the suite's primary tolerance"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            config.seed = _parse_integer(args.seed, "--seed", minimum=0)
        if args.tol is not None:
            config.tolerances[SUITES[args.command].tolerance] = check_tolerance(args.tol, "--tol")
        if args.format is not None:
            config.output_format = args.format
        record = SUITES[args.command](config)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = render(record, config.output_format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if record.timing_seconds is not None:
        print(f"{args.command}: {record.timing_seconds:.3f}s", file=sys.stderr)
    for line in record.violations:
        print(f"contract violation: {line}", file=sys.stderr)
    return 3 if record.violations else 0


if __name__ == "__main__":
    sys.exit(main())
