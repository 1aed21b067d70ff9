"""``# repro: noqa[RULE-ID]`` suppression comments.

A finding is suppressed when the *statement* it is reported in carries a
suppression comment naming its rule id (or a bare ``# repro: noqa``,
which suppresses every rule).  Multiple ids are comma separated::

    self._pos_time == now  # repro: noqa[DET-004] cache key, not a comparison

Suppressions attach to the smallest enclosing **statement span**, not
just the physical line the comment sits on.  A multi-line statement — a
parenthesized call, a decorated ``def``, a constructor spread over
several lines — is one logical violation site, and the rule may anchor
its finding on any line of it (a call may be reported at an argument's
line; ``Assign`` findings report the statement head).  For
simple statements the span is ``lineno..end_lineno``; for compound
statements (``def``/``class``/``if``/``for``...) it is the *header*
only — decorators through the line before the body starts — so a noqa
on a ``def`` line never blankets the whole function body.

The annotation still sits next to the code it excuses, which doubles as
documentation of *deliberate* violations (a float equality used as a
cache key).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.analysis.core import Finding, ModuleContext

__all__ = ["Suppressions", "collect_suppressions", "split_suppressed"]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<ids>[A-Za-z]+-\d+(?:\s*,\s*[A-Za-z]+-\d+)*)\])?",
)

#: Sentinel meaning "every rule" (bare ``# repro: noqa``).
ALL_RULES: FrozenSet[str] = frozenset({"*"})


@dataclass(frozen=True)
class Suppressions:
    """Per-line suppression table for one module (spans pre-expanded)."""

    by_line: Dict[int, FrozenSet[str]]

    def suppresses(self, finding: Finding) -> bool:
        ids = self.by_line.get(finding.line)
        if ids is None:
            return False
        return "*" in ids or finding.rule_id in ids


def _statement_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """(start, end) line spans for every statement, header-only for blocks.

    Compound statements contribute the decorator-to-body-start header so
    a noqa on (or inside) a multi-line ``def (...)`` signature covers the
    signature without blanketing the body; their nested statements
    contribute their own spans.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        decorators = getattr(node, "decorator_list", [])
        if decorators:
            start = min(start, *(d.lineno for d in decorators))
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        else:
            end = getattr(node, "end_lineno", None) or node.lineno
        spans.append((start, end))
    return spans


def collect_suppressions(module: ModuleContext) -> Suppressions:
    """Scan for ``# repro: noqa`` comments and expand them to statement spans."""
    raw_by_line: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(module.lines, start=1):
        if "noqa" not in text:  # cheap pre-filter
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        raw = match.group("ids")
        if raw is None:
            ids = ALL_RULES
        else:
            ids = frozenset(part.strip().upper() for part in raw.split(","))
        raw_by_line[lineno] = raw_by_line.get(lineno, frozenset()) | ids

    if not raw_by_line:
        return Suppressions(by_line={})

    spans = _statement_spans(module.tree)
    table: Dict[int, FrozenSet[str]] = {}
    for lineno in sorted(raw_by_line):
        ids = raw_by_line[lineno]
        # Smallest statement span containing the comment line; ties go to
        # the innermost (latest-starting) statement.
        enclosing = [
            (end - start, -start, start, end)
            for start, end in spans
            if start <= lineno <= end
        ]
        if enclosing:
            _, _, start, end = min(enclosing)
        else:
            start = end = lineno
        for covered in range(start, end + 1):
            table[covered] = table.get(covered, frozenset()) | ids
    return Suppressions(by_line=table)


def split_suppressed(
    findings: List[Finding], suppressions: Suppressions
) -> Tuple[List[Finding], List[Finding]]:
    """Partition ``findings`` into (active, suppressed)."""
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        (suppressed if suppressions.suppresses(finding) else active).append(finding)
    return active, suppressed
