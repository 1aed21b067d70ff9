"""Analysis driver: file collection and rule dispatch.

The engine is deterministic by construction: files are discovered in
sorted order, findings are sorted before reporting, and nothing reads
the wall clock.  Every rule looks at one module at a time, and an
uncached pass over ``src/`` takes about 0.6 s, so there is no
incremental cache.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.core import Finding, ModuleContext, registry
from repro.analysis.suppress import collect_suppressions, split_suppressed

# Imported for the side effect of registering the rule family.
from repro.analysis import det_rules as _det_rules  # noqa: F401

__all__ = [
    "AnalysisResult",
    "analyze_paths",
    "collect_files",
]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "results"}


@dataclass
class AnalysisResult:
    """Everything one run produced, ready for a reporter."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    errors: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def exit_code(self) -> int:
        """0 clean, 1 findings, 2 parse/usage errors."""
        if self.errors:
            return 2
        return 1 if self.findings else 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: set[Path] = set()
    ordered: List[Path] = []

    def add(path: Path) -> None:
        if path not in seen:
            seen.add(path)
            ordered.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    add(candidate)
        elif path.suffix == ".py":
            add(path)
    return ordered


# ---------------------------------------------------------------- running
def analyze_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """The one-call entry point: discover, then parse and lint each file."""
    rules = registry.select(select=select, ignore=ignore)
    result = AnalysisResult()
    for path in collect_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            result.errors.append(
                Finding(
                    path=path.as_posix(),
                    line=getattr(exc, "lineno", 1) or 1,
                    column=1,
                    rule_id="LINT-000",
                    message=f"file could not be parsed: {exc}",
                )
            )
            continue
        module = ModuleContext(path.as_posix(), source, tree)
        result.files_analyzed += 1
        raw: List[Finding] = []
        for rule in rules:
            if not rule.exempts(module.path):
                raw.extend(rule.check(module))
        active, suppressed = split_suppressed(raw, collect_suppressions(module))
        result.findings.extend(active)
        result.suppressed.extend(suppressed)
    result.errors.sort()
    result.findings.sort()
    result.suppressed.sort()
    return result
