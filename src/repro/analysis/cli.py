"""Command-line interface: ``python -m repro.analysis`` / ``repro-lint``.

Exit codes: 0 = clean, 1 = findings, 2 = parse or usage errors — so the
CI step ``python -m repro.analysis src tests --format sarif --baseline
analysis_baseline.json`` gates merges on both rule families while known
debt stays visible but non-fatal.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, Optional, Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.engine import analyze_paths
from repro.analysis.report import render_rule_catalog, write_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism (DET) and anonymity-invariant (ANON) "
            "linter for the ANT/AGFW reproduction. Taint and call-graph "
            "facts span every analyzed file, so a leak or an unordered "
            "iteration is followed across modules. Suppress a finding with "
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
        help="only run these rule ids or families (e.g. DET, ANON-001); repeatable",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip these rule ids or families; repeatable",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        help=(
            "incremental cache file: per-file findings reused while the "
            "file and every cross-module fact are unchanged"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help=(
            "baseline file of known findings; matched findings are "
            "reported as 'baselined' and do not affect the exit code"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from this run's findings and exit 0",
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

    if args.list_rules:
        out.write(render_rule_catalog() + "\n")
        return 0

    if args.update_baseline and not args.baseline:
        out.write("repro-lint: --update-baseline requires --baseline PATH\n")
        return 2

    baseline: Optional[Baseline] = None
    baseline_path: Optional[Path] = Path(args.baseline) if args.baseline else None
    if baseline_path is not None and baseline_path.exists() and not args.update_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError) as exc:
            out.write(f"repro-lint: unreadable baseline {baseline_path}: {exc}\n")
            return 2

    try:
        result = analyze_paths(
            args.paths,
            select=args.select,
            ignore=args.ignore,
            cache_path=Path(args.cache) if args.cache else None,
            baseline=baseline,
        )
    except Exception as exc:  # pragma: no cover - defensive: engine bug
        out.write(f"repro-lint: internal error: {exc}\n")
        return 2

    if args.update_baseline:
        assert baseline_path is not None
        from repro.analysis.engine import collect_files, _parse_modules

        # Re-derive snippets for fingerprinting from the analyzed files.
        modules = {
            m.path: m for m in _parse_modules(collect_files(args.paths), [])
        }

        def snippet_of(finding):  # type: ignore[no-untyped-def]
            module = modules.get(finding.path)
            return module.snippet(finding.line) if module is not None else ""

        Baseline.from_findings(result.findings, snippet_of).save(baseline_path)
        out.write(
            f"repro-lint: baseline updated with {len(result.findings)} "
            f"finding{'s' if len(result.findings) != 1 else ''} "
            f"-> {baseline_path}\n"
        )
        return 0

    write_report(result, args.format, out)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
