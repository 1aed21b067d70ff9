"""Core data model of the static-analysis engine.

The engine is deliberately small: a :class:`Finding` is one diagnostic at
a ``file:line:col``, a :class:`Rule` produces findings for one parsed
module, and the :class:`RuleRegistry` maps rule ids to rule instances.
Project-wide knowledge (e.g. which classes are :class:`~repro.net.packet.
Packet` subclasses across modules) lives in :class:`ProjectContext`,
built once per run before any rule fires.

Rules are *paper-specific*: the DET family mechanizes the determinism
contract of :mod:`repro.sim.rng` (one seed -> bit-identical run), the
ANON family mechanizes the ANT/AGFW invariant that no real node identity
or MAC address reaches a wire-visible packet field (Zhou & Yow, Sec. 3).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "ANALYSIS_VERSION",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "RuleRegistry",
    "registry",
    "register",
]

#: Bumped whenever rule semantics or the dataflow machinery change, so
#: stale incremental-cache entries can never satisfy a newer engine.
ANALYSIS_VERSION = "3-numpy-det"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule fired at a source location."""

    path: str
    line: int
    column: int
    rule_id: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "message": self.message,
        }


class ModuleContext:
    """One parsed module plus the derived lookup structures rules share."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        #: Path as given on the command line (posix separators).
        self.path = PurePosixPath(path).as_posix()
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self._parents: Optional[Dict[int, ast.AST]] = None
        self._import_aliases: Optional[Dict[str, str]] = None
        self._from_imports: Optional[Dict[str, Tuple[str, str]]] = None

    # ------------------------------------------------------------ structure
    @property
    def parents(self) -> Dict[int, ast.AST]:
        """Map ``id(node) -> parent node`` for the whole tree (lazy)."""
        if self._parents is None:
            parents: Dict[int, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[id(child)] = parent
            self._parents = parents
        return self._parents

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(id(node))

    # -------------------------------------------------------------- imports
    def _scan_imports(self) -> None:
        aliases: Dict[str, str] = {}
        from_imports: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds c=a.b
                    aliases[local] = alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    from_imports[local] = (node.module, alias.name)
        self._import_aliases = aliases
        self._from_imports = from_imports

    @property
    def import_aliases(self) -> Dict[str, str]:
        """``local name -> module dotted path`` for plain ``import`` statements."""
        if self._import_aliases is None:
            self._scan_imports()
        assert self._import_aliases is not None
        return self._import_aliases

    @property
    def from_imports(self) -> Dict[str, Tuple[str, str]]:
        """``local name -> (module, original name)`` for ``from x import y``."""
        if self._from_imports is None:
            self._scan_imports()
        assert self._from_imports is not None
        return self._from_imports

    def resolves_to_module(self, name: str, module: str) -> bool:
        """Does local ``name`` refer to ``module`` (directly or via alias)?"""
        return self.import_aliases.get(name) == module

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


class ProjectContext:
    """Cross-module facts gathered in a pre-pass over every analyzed file.

    The main product is :attr:`packet_classes` — the transitive set of
    class names subclassing :class:`repro.net.packet.Packet` anywhere in
    the analyzed tree.  The ANON rules use it to recognize wire-visible
    constructors even when the class was imported under an alias.
    """

    #: (module, class) pairs that root the packet hierarchy.
    PACKET_ROOTS: Tuple[Tuple[str, str], ...] = (
        ("repro.net.packet", "Packet"),
        ("repro.location.geocast", "LocationAddressed"),
    )

    def __init__(self, modules: Iterable[ModuleContext]) -> None:
        self.modules: List[ModuleContext] = list(modules)
        self.packet_classes: set[str] = {name for _, name in self.PACKET_ROOTS}
        self._symbol_table = None
        self._det_facts = None
        self._summaries: Dict[object, object] = {}
        self._build_packet_table()

    # --------------------------------------------------- interprocedural assets
    @property
    def symbol_table(self):
        """Project-wide symbol table (lazy; see :mod:`.callgraph`)."""
        if self._symbol_table is None:
            from repro.analysis.callgraph import SymbolTable

            self._symbol_table = SymbolTable(self.modules)
        return self._symbol_table

    @property
    def det_facts(self):
        """Ordering facts for the DET call-graph pass (lazy)."""
        if self._det_facts is None:
            from repro.analysis.summaries import DeterminismFacts

            self._det_facts = DeterminismFacts.build(self.modules, self.symbol_table)
        return self._det_facts

    def summaries_for(self, spec):
        """Taint summaries for one :class:`~.dataflow.SeedSpec` (cached)."""
        if spec not in self._summaries:
            from repro.analysis.summaries import ProjectSummaries

            self._summaries[spec] = ProjectSummaries(
                self.modules,
                self.symbol_table,
                spec,
                packet_classes=frozenset(self.packet_classes),
            )
        return self._summaries[spec]

    def _build_packet_table(self) -> None:
        # Collect (class name -> base names as locally written), resolving
        # import aliases (``from repro.net.packet import Packet as _Packet``).
        edges: List[Tuple[str, str]] = []  # (class, resolved base name)
        for module in self.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for base in node.bases:
                    base_name = _terminal_name(base)
                    if base_name is None:
                        continue
                    origin = module.from_imports.get(base_name)
                    if origin is not None:
                        base_name = origin[1]
                    edges.append((node.name, base_name))
        # Fixpoint: pull every class whose (resolved) base is already known.
        changed = True
        while changed:
            changed = False
            for cls, base in edges:
                if base in self.packet_classes and cls not in self.packet_classes:
                    self.packet_classes.add(cls)
                    changed = True

    def is_packet_class(self, module: ModuleContext, local_name: str) -> bool:
        """Is ``local_name`` (as used in ``module``) a known packet class?"""
        origin = module.from_imports.get(local_name)
        if origin is not None:
            local_name = origin[1]
        return local_name in self.packet_classes


def _terminal_name(node: ast.AST) -> Optional[str]:
    """``a.b.C`` -> ``C``; ``C`` -> ``C``; anything else -> None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class Rule:
    """Base class: one named, documented check over a parsed module.

    ``exempt_paths`` are glob patterns (posix, matched right-anchored
    against the path's trailing components) the engine skips the rule for — the mechanism behind the paper-motivated allowlists
    (``crypto/`` may handle identities; ``sim/rng.py`` may construct
    ``random.Random``).  Subclasses override the class attributes.
    """

    id: str = "XXX-000"
    name: str = "unnamed"
    rationale: str = ""
    exempt_paths: Tuple[str, ...] = ()

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def exempts(self, path: str) -> bool:
        # Right-anchored, component-wise matching: ``crypto/*`` exempts any
        # file directly inside a ``crypto`` directory, ``test_*.py`` matches
        # on the basename, and ``*`` never crosses a ``/`` (so a *directory*
        # that merely contains ``test_`` in its name does not exempt files
        # beneath it).
        posix = PurePosixPath(path)
        return any(posix.match(pattern) for pattern in self.exempt_paths)

    def finding(self, module: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            message=message,
        )


@dataclass
class RuleRegistry:
    """Id-keyed collection of rule instances."""

    _rules: Dict[str, Rule] = field(default_factory=dict)

    def add(self, rule: Rule) -> Rule:
        if rule.id in self._rules:
            raise ValueError(f"duplicate rule id {rule.id}")
        self._rules[rule.id] = rule
        return rule

    def get(self, rule_id: str) -> Rule:
        return self._rules[rule_id]

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(sorted(self._rules.values(), key=lambda r: r.id))

    def __len__(self) -> int:
        return len(self._rules)

    def select(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> List[Rule]:
        """Rules filtered by id or id-prefix (``DET`` selects the family)."""

        def matches(rule: Rule, spec: str) -> bool:
            return rule.id == spec or rule.id.startswith(spec.rstrip("-") + "-")

        rules = list(self)
        if select:
            wanted = list(select)
            rules = [r for r in rules if any(matches(r, s) for s in wanted)]
        if ignore:
            unwanted = list(ignore)
            rules = [r for r in rules if not any(matches(r, s) for s in unwanted)]
        return rules


#: The process-wide registry populated by the rule modules at import time.
registry = RuleRegistry()


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and add to the global registry."""
    registry.add(rule_cls())
    return rule_cls
