"""Command-line surface.

Subcommands mirror the experiment kinds; every run reads a JSON config,
executes deterministically under the master seed, and writes one report.

Exit codes: 0 success, 1 config error, 2 invariant violation detected by an
audit (the report is still written), 3 I/O error, 4 internal error (any
other exception, reported on one line).
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    load_config,
    render_report,
    run_experiment,
    write_report,
)

_SUBCOMMANDS = {
    "audit-contraction": "contraction",
    "concentration": "concentration",
    "asem": "asem",
    "relative": "relative",
    "scaling": "scaling",
    "bounds": "bounds",
    "poisson-check": "poisson",
    "lemma-check": "lemma",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlearn",
        description="Audits of learning-theory bounds for a contractive Markov chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="report path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 4


def _run(args: argparse.Namespace) -> int:
    # the subcommand's kind, and the seed if given, replace the file's before the check
    overrides = {"kind": _SUBCOMMANDS[args.command]}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    try:
        config = load_config(args.config, **overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        report = run_experiment(config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.out is None:
            sys.stdout.write(render_report(report, args.format))
        else:
            write_report(report, args.out, args.format)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    if int(report.metadata.get("violations", 0)) > 0:
        print("audit detected invariant violations", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
