"""Text, JSON and SARIF reporters for analysis results.

Text output is the human/CI-log format (``path:line:col: RULE message``,
ruff-style); JSON is the machine format scripts and dashboards
consume; SARIF 2.1.0 is the interchange format code-scanning UIs ingest
(GitHub code scanning renders it as inline PR annotations).  All carry
the same findings in the same (sorted) order.
"""

from __future__ import annotations

import json
from typing import IO, List

from repro.analysis.core import ANALYSIS_VERSION, Finding, registry
from repro.analysis.engine import AnalysisResult

__all__ = ["render_text", "render_json", "render_sarif", "write_report"]

JSON_SCHEMA_VERSION = 3

SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: AnalysisResult, verbose: bool = False) -> str:
    """``file:line:col: RULE-ID message`` lines plus a summary."""
    lines = []
    for finding in (*result.errors, *result.findings):
        lines.append(f"{finding.location()}: {finding.rule_id} {finding.message}")
    if verbose and result.suppressed:
        for finding in result.suppressed:
            lines.append(
                f"{finding.location()}: {finding.rule_id} [suppressed] {finding.message}"
            )
    total = len(result.findings)
    summary = (
        f"{result.files_analyzed} files analyzed: "
        f"{total} finding{'s' if total != 1 else ''}"
        f", {len(result.suppressed)} suppressed"
    )
    if result.errors:
        summary += f", {len(result.errors)} unparseable"
    if total:
        by_rule = ", ".join(
            f"{rule_id}×{count}" for rule_id, count in result.counts_by_rule().items()
        )
        summary += f" ({by_rule})"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    """Stable machine-readable report (sorted findings, versioned shape)."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "analysis_version": ANALYSIS_VERSION,
        "files_analyzed": result.files_analyzed,
        "findings": [finding.as_dict() for finding in result.findings],
        "suppressed": [finding.as_dict() for finding in result.suppressed],
        "errors": [finding.as_dict() for finding in result.errors],
        "counts": result.counts_by_rule(),
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_result(finding: Finding, level: str) -> dict:
    return {
        "ruleId": finding.rule_id,
        "level": level,
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.column,
                    },
                }
            }
        ],
    }


def render_sarif(result: AnalysisResult) -> str:
    """SARIF 2.1.0: rules catalog + results, suppressed findings marked.

    Suppressed findings are emitted at ``note`` level with an
    ``inSource`` suppression object, so viewers show them struck through
    rather than hiding them.
    """
    rules = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.name.replace("-", " ")},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in registry
    ]
    results: List[dict] = []
    for finding in result.errors:
        results.append(_sarif_result(finding, "error"))
    for finding in result.findings:
        results.append(_sarif_result(finding, "error"))
    for finding in result.suppressed:
        row = _sarif_result(finding, "note")
        row["suppressions"] = [{"kind": "inSource"}]
        results.append(row)
    payload = {
        "$schema": SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": ANALYSIS_VERSION,
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_catalog() -> str:
    """``--list-rules`` output: one line per registered rule."""
    lines = []
    for rule in registry:
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"    {rule.rationale}")
        if rule.exempt_paths:
            lines.append(f"    exempt: {', '.join(rule.exempt_paths)}")
    return "\n".join(lines)


def write_report(result: AnalysisResult, fmt: str, stream: IO[str]) -> None:
    if fmt == "json":
        stream.write(render_json(result) + "\n")
    elif fmt == "sarif":
        stream.write(render_sarif(result) + "\n")
    elif fmt == "text":
        stream.write(render_text(result) + "\n")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown format {fmt!r}")
