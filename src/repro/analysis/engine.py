"""Analysis driver: file collection, rule dispatch, caching, gating.

The engine is deterministic by construction (it must survive its own
DET rules): files are discovered in sorted order, findings are sorted
before reporting, and nothing reads the wall clock.

Two run-shaping features sit on top of plain rule dispatch:

* **Incremental cache** — per-file findings keyed by the file's source
  digest *and* a project-facts digest.  DET-009 findings in one file
  depend on facts computed from every other file, so a cache entry is
  only valid while the whole project's derived facts (determinism
  facts, rule set, :data:`~repro.analysis.core.ANALYSIS_VERSION`) hash
  the same.  Parsing and fact construction always run — they are what
  the facts digest is made of — the cache skips the per-file rule
  dispatch, which dominates wall-clock on warm runs.
* **Baseline gate** — findings matched by a checked-in
  :class:`~repro.analysis.baseline.Baseline` are reported separately
  and do not affect the exit code; only *new* findings fail a PR.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.baseline import Baseline
from repro.analysis.core import (
    ANALYSIS_VERSION,
    Finding,
    ModuleContext,
    ProjectContext,
    Rule,
    registry,
)
from repro.analysis.suppress import collect_suppressions, split_suppressed

# Imported for the side effect of registering the rule families.
from repro.analysis import det_rules as _det_rules  # noqa: F401

__all__ = [
    "AnalysisCache",
    "AnalysisResult",
    "analyze_paths",
    "collect_files",
    "project_facts_key",
    "run_rules",
]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "results"}


@dataclass
class AnalysisResult:
    """Everything one run produced, ready for a reporter."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    errors: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

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


def _parse_modules(
    files: Iterable[Path], errors: List[Finding]
) -> List[ModuleContext]:
    modules: List[ModuleContext] = []
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            errors.append(
                Finding(
                    path=path.as_posix(),
                    line=line,
                    column=1,
                    rule_id="LINT-000",
                    message=f"file could not be parsed: {exc}",
                )
            )
            continue
        modules.append(ModuleContext(path.as_posix(), source, tree))
    return modules


# ------------------------------------------------------------------ cache
def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def project_facts_key(project: ProjectContext, rules: Sequence[Rule]) -> str:
    """Digest of everything a cached per-file result depends on besides
    the file itself: engine version, rule set, and every cross-module
    fact the rules consult.  Any edit anywhere that shifts a set-typed
    attribute, a set-returning function or scheduler reachability
    changes this key and invalidates the whole cache, which is exactly
    the soundness condition for caching interprocedural findings.
    """
    payload: Dict[str, object] = {
        "analysis_version": ANALYSIS_VERSION,
        "rules": [rule.id for rule in rules],
        "det": project.det_facts.digest_payload(),
    }
    return _sha256_text(json.dumps(payload, sort_keys=True))


def _finding_to_json(finding: Finding) -> list:
    return [finding.path, finding.line, finding.column, finding.rule_id, finding.message]


def _finding_from_json(row: Sequence[object]) -> Finding:
    path, line, column, rule_id, message = row
    return Finding(
        path=str(path),
        line=int(line),  # type: ignore[arg-type]
        column=int(column),  # type: ignore[arg-type]
        rule_id=str(rule_id),
        message=str(message),
    )


class AnalysisCache:
    """Per-file findings cache, valid under one project facts key.

    On disk: one JSON object.  A cache written under a different facts
    key (different engine version, rule set, or any cross-module fact)
    is discarded wholesale on load.
    """

    def __init__(self, path: Path, facts_key: str) -> None:
        self.path = path
        self.facts_key = facts_key
        self._files: Dict[str, dict] = {}
        self._dirty = False
        if path.exists():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError):
                data = {}
            if data.get("facts_key") == facts_key:
                self._files = dict(data.get("files", {}))

    def lookup(
        self, module_path: str, source_sha: str
    ) -> Optional[Tuple[List[Finding], List[Finding]]]:
        entry = self._files.get(module_path)
        if entry is None or entry.get("sha") != source_sha:
            return None
        findings = [_finding_from_json(row) for row in entry.get("findings", [])]
        suppressed = [_finding_from_json(row) for row in entry.get("suppressed", [])]
        return findings, suppressed

    def store(
        self,
        module_path: str,
        source_sha: str,
        findings: List[Finding],
        suppressed: List[Finding],
    ) -> None:
        self._files[module_path] = {
            "sha": source_sha,
            "findings": [_finding_to_json(f) for f in findings],
            "suppressed": [_finding_to_json(f) for f in suppressed],
        }
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {
            "facts_key": self.facts_key,
            "files": {k: self._files[k] for k in sorted(self._files)},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        self._dirty = False


# ---------------------------------------------------------------- running
def run_rules(
    modules: Sequence[ModuleContext],
    rules: Sequence[Rule],
    project: Optional[ProjectContext] = None,
    cache: Optional[AnalysisCache] = None,
) -> AnalysisResult:
    """Run ``rules`` over already-parsed modules."""
    if project is None:
        project = ProjectContext(modules)
    result = AnalysisResult(files_analyzed=len(modules))
    for module in modules:
        source_sha = _sha256_text(module.source)
        cached = cache.lookup(module.path, source_sha) if cache is not None else None
        if cached is not None:
            active, suppressed = cached
            result.cache_hits += 1
        else:
            raw: List[Finding] = []
            for rule in rules:
                if rule.exempts(module.path):
                    continue
                raw.extend(rule.check(module, project))
            active, suppressed = split_suppressed(raw, collect_suppressions(module))
            active.sort()
            suppressed.sort()
            if cache is not None:
                cache.store(module.path, source_sha, active, suppressed)
                result.cache_misses += 1
        result.findings.extend(active)
        result.suppressed.extend(suppressed)
    if cache is not None:
        cache.save()
    result.findings.sort()
    result.suppressed.sort()
    return result


def analyze_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    cache_path: Optional[Path] = None,
    baseline: Optional[Baseline] = None,
) -> AnalysisResult:
    """The one-call entry point: discover, parse, pre-pass, lint, gate."""
    errors: List[Finding] = []
    files = collect_files(paths)
    modules = _parse_modules(files, errors)
    rules = registry.select(select=select, ignore=ignore)
    project = ProjectContext(modules)
    cache: Optional[AnalysisCache] = None
    if cache_path is not None:
        cache = AnalysisCache(cache_path, project_facts_key(project, rules))
    result = run_rules(modules, rules, project=project, cache=cache)
    result.errors = sorted(errors)
    if baseline is not None:
        snippets = {m.path: m for m in modules}

        def snippet_of(finding: Finding) -> str:
            module = snippets.get(finding.path)
            return module.snippet(finding.line) if module is not None else ""

        result.findings, result.baselined = baseline.partition(
            result.findings, snippet_of
        )
    return result
