"""Shared helpers for the ``repro.analysis`` test modules.

Fixture sources are written into a temporary tree (so rule path
allowlists based on fnmatch see realistic relative paths like
``src/repro/crypto/keys.py``) and run through the real engine entry
point, exactly as the CLI would.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.engine import AnalysisResult, analyze_paths


def write_fixture(tmp_path: Path, rel: str, source: str) -> Path:
    """Write a dedented fixture module at ``tmp_path/rel``."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def lint_source(
    tmp_path: Path,
    source: str,
    select: Optional[Sequence[str]] = None,
    rel: str = "src/repro/fixture_mod.py",
) -> AnalysisResult:
    """Lint one fixture module and return the full result."""
    path = write_fixture(tmp_path, rel, source)
    return analyze_paths([str(path)], select=select)


def rule_ids(result: AnalysisResult) -> list[str]:
    return [finding.rule_id for finding in result.findings]
