"""Command-line interface: ``python -m repro.analysis`` / ``repro-lint``.

Exit codes: 0 = clean, 1 = findings, 2 = parse or usage errors — so the
CI step ``python -m repro.analysis src tests --format sarif`` fails on
any finding.  A ``--select``/``--ignore`` id that names no registered
rule, or a path that does not exist, is a usage error, so a stale id or
a mistyped path cannot pass a run that checks nothing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, Optional, Sequence

from repro.analysis.core import registry
from repro.analysis.engine import analyze_paths
from repro.analysis.report import render_rule_catalog, write_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism (DET) linter for the ANT/AGFW "
            "reproduction: the determinism bugs that behave the same in "
            "every run on one machine. Suppress a finding with "
            "'# repro: noqa[RULE-ID]' on its statement."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to analyze (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="only run these rule ids or families (e.g. DET, DET-004); repeatable",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip these rule ids or families; repeatable",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, stream: Optional[IO[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = stream if stream is not None else sys.stdout
    for flag, specs in (("--select", args.select), ("--ignore", args.ignore)):
        unknown = [spec for spec in specs or () if not registry.select(select=[spec])]
        if unknown:
            parser.error(f"{flag} {', '.join(unknown)} matches no rule (see --list-rules)")

    if args.list_rules:
        out.write(render_rule_catalog() + "\n")
        return 0

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    try:
        result = analyze_paths(args.paths, select=args.select, ignore=args.ignore)
    except Exception as exc:  # pragma: no cover - defensive: engine bug
        out.write(f"repro-lint: internal error: {exc}\n")
        return 2

    write_report(result, args.format, out)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
