"""Project-wide symbol table and call graph.

The interprocedural passes need to know, for *any* call expression,
which function definitions in the analyzed tree it might land on.  This
module builds that knowledge in one deterministic pre-pass:

* :func:`module_name_of` — file path to dotted module name (``src/repro/
  routing/gpsr.py`` → ``repro.routing.gpsr``), so qualified names are
  stable across checkouts and tmp-dir fixture trees;
* :class:`SymbolTable` — every function/method/class definition under a
  qualified name, plus per-module binding maps that resolve local names
  through ``from x import y [as z]`` chains;
* :class:`CallGraph` — caller → callee edges using the same resolution,
  with a reverse-reachability helper the DET-009 pass uses to find every
  function that can transitively reach the event scheduler.

Resolution is deliberately *possibilistic*: an attribute call
``obj.refresh()`` with an unknown receiver resolves to every analyzed
function named ``refresh`` (capped — past the cap the call is treated as
opaque and the taint rules fall back to their conservative
argument-union behavior).  Over-approximation keeps the invariant
checker sound-ish without a type checker; determinism comes from sorted
iteration everywhere a set would otherwise leak ordering.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.core import ModuleContext

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "SymbolTable",
    "module_name_of",
    "terminal_name",
]

#: An attribute call whose receiver cannot be typed resolves to every
#: same-named function — unless there are more than this many, in which
#: case the call is treated as opaque (conservative fallback).
MAX_NAME_CANDIDATES = 8


def terminal_name(node: ast.AST) -> Optional[str]:
    """``a.b.C`` -> ``C``; ``C`` -> ``C``; anything else -> None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def module_name_of(path: str) -> str:
    """Dotted module name for a source path, anchored at the last ``src``.

    Falls back to the bare stem for paths outside a ``src`` layout so
    ad-hoc fixture files still get *a* stable name.
    """
    parts = PurePosixPath(path).parts
    if "src" in parts:
        anchor = len(parts) - 1 - tuple(reversed(parts)).index("src")
        rel = parts[anchor + 1 :]
    else:
        rel = (parts[-1],)
    dotted = [p[:-3] if p.endswith(".py") else p for p in rel]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) or PurePosixPath(path).stem


@dataclass(frozen=True)
class FunctionInfo:
    """One analyzed ``def``: where it lives and its AST."""

    qualname: str
    name: str
    module_path: str
    module_name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_qualname: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None

    def params(self) -> List[str]:
        """Positional-ish parameter names, ``self``/``cls`` included."""
        args = self.node.args  # type: ignore[attr-defined]
        return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]


@dataclass
class ClassInfo:
    """One analyzed ``class``: methods by name, base names as written."""

    qualname: str
    name: str
    module_path: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  # name -> func qualname
    base_names: Tuple[str, ...] = ()


class SymbolTable:
    """Qualified-name index over every analyzed module.

    ``bindings[module_path]`` maps a module's *local* top-level names to
    qualified names — its own ``def``/``class`` statements plus
    ``from x import y`` targets that land on an analyzed definition.
    """

    def __init__(self, modules: List[ModuleContext]) -> None:
        self.modules = modules
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.bindings: Dict[str, Dict[str, str]] = {}
        self._by_node: Dict[int, FunctionInfo] = {}
        self._functions_by_name: Dict[str, List[str]] = {}
        self._classes_by_name: Dict[str, List[str]] = {}
        for module in modules:
            self._index_module(module)
        self._link_imports()

    # ------------------------------------------------------------- building
    def _index_module(self, module: ModuleContext) -> None:
        mod_name = module_name_of(module.path)
        local: Dict[str, str] = {}
        self.bindings[module.path] = local

        def visit(stmts: List[ast.stmt], prefix: str, cls: Optional[ClassInfo]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{stmt.name}"
                    info = FunctionInfo(
                        qualname=qual,
                        name=stmt.name,
                        module_path=module.path,
                        module_name=mod_name,
                        node=stmt,
                        class_qualname=cls.qualname if cls is not None else None,
                    )
                    self.functions[qual] = info
                    self._by_node[id(stmt)] = info
                    self._functions_by_name.setdefault(stmt.name, []).append(qual)
                    if cls is not None:
                        cls.methods.setdefault(stmt.name, qual)
                    elif prefix == mod_name:
                        local[stmt.name] = qual
                    # Nested defs get qualified under their parent def.
                    visit(stmt.body, qual, None)
                elif isinstance(stmt, ast.ClassDef):
                    qual = f"{prefix}.{stmt.name}"
                    base_names = tuple(
                        n for n in (terminal_name(b) for b in stmt.bases) if n is not None
                    )
                    cinfo = ClassInfo(
                        qualname=qual,
                        name=stmt.name,
                        module_path=module.path,
                        node=stmt,
                        base_names=base_names,
                    )
                    self.classes[qual] = cinfo
                    self._classes_by_name.setdefault(stmt.name, []).append(qual)
                    if prefix == mod_name:
                        local[stmt.name] = qual
                    visit(stmt.body, qual, cinfo)

        visit(module.tree.body, mod_name, None)

    def _link_imports(self) -> None:
        """Resolve ``from x import y`` bindings onto analyzed definitions."""
        for module in self.modules:
            local = self.bindings[module.path]
            for name, (origin_mod, origin_name) in sorted(module.from_imports.items()):
                qual = f"{origin_mod}.{origin_name}"
                if qual in self.functions or qual in self.classes:
                    local.setdefault(name, qual)

    # ----------------------------------------------------------- resolution
    def function_for_node(self, node: ast.AST) -> Optional[FunctionInfo]:
        return self._by_node.get(id(node))

    def resolve_local(self, module: ModuleContext, name: str) -> Optional[str]:
        return self.bindings.get(module.path, {}).get(name)

    def resolve_class(self, module: ModuleContext, name: str) -> Optional[ClassInfo]:
        """A class as referred to by ``name`` inside ``module``."""
        qual = self.resolve_local(module, name)
        if qual is not None:
            return self.classes.get(qual)
        candidates = self._classes_by_name.get(name, [])
        if len(candidates) == 1:
            return self.classes[candidates[0]]
        return None

    def class_method(self, class_qualname: str, name: str) -> Optional[FunctionInfo]:
        """Method lookup through the (single-inheritance, analyzed) MRO."""
        seen = 0
        qual: Optional[str] = class_qualname
        while qual is not None and seen < 16:
            cinfo = self.classes.get(qual)
            if cinfo is None:
                return None
            method = cinfo.methods.get(name)
            if method is not None:
                return self.functions.get(method)
            qual = self._parent_class(cinfo)
            seen += 1
        return None

    def _parent_class(self, cinfo: ClassInfo) -> Optional[str]:
        module = next((m for m in self.modules if m.path == cinfo.module_path), None)
        for base in cinfo.base_names:
            if module is not None:
                qual = self.resolve_local(module, base)
                if qual is not None and qual in self.classes:
                    return qual
            candidates = self._classes_by_name.get(base, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def resolve_call(
        self,
        module: ModuleContext,
        call: ast.Call,
        enclosing_class: Optional[str] = None,
        class_of: Optional[Callable[[ast.AST], Optional[str]]] = None,
    ) -> Tuple[FunctionInfo, ...]:
        """Candidate targets for ``call`` — empty tuple means *opaque*.

        ``enclosing_class`` types ``self.m(...)`` receivers; ``class_of``
        is an optional callback typing arbitrary receiver expressions
        (the dataflow layer passes its local class environment).
        """
        func = call.func
        if isinstance(func, ast.Name):
            qual = self.resolve_local(module, func.id)
            if qual is not None:
                info = self.functions.get(qual)
                if info is not None:
                    return (info,)
                cinfo = self.classes.get(qual)
                if cinfo is not None:
                    init = self.class_method(qual, "__init__")
                    return (init,) if init is not None else ()
            return ()
        if isinstance(func, ast.Attribute):
            receiver = func.value
            # self.m() / cls.m() inside a known class.
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and enclosing_class is not None
            ):
                info = self.class_method(enclosing_class, func.attr)
                return (info,) if info is not None else ()
            # mod.f() through a plain import of an analyzed module.
            if isinstance(receiver, ast.Name):
                target_mod = module.import_aliases.get(receiver.id)
                if target_mod is not None:
                    info = self.functions.get(f"{target_mod}.{func.attr}")
                    if info is not None:
                        return (info,)
            # Receiver typed by the caller's class environment.
            if class_of is not None:
                cls = class_of(receiver)
                if cls is not None:
                    info = self.class_method(cls, func.attr)
                    return (info,) if info is not None else ()
            # Fallback: every analyzed function with this name (capped).
            candidates = self._functions_by_name.get(func.attr, [])
            if 0 < len(candidates) <= MAX_NAME_CANDIDATES:
                return tuple(self.functions[q] for q in sorted(candidates))
        return ()


class CallGraph:
    """Caller → callee qualname edges over the symbol table."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.callees: Dict[str, Tuple[str, ...]] = {}
        self.call_terminal_names: Dict[str, Tuple[str, ...]] = {}
        for module in table.modules:
            self._scan_module(module)

    def _scan_module(self, module: ModuleContext) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info = self.table.function_for_node(node)
            if info is None:
                continue
            edges: List[str] = []
            names: List[str] = []
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                name = terminal_name(sub.func)
                if name is not None:
                    names.append(name)
                for target in self.table.resolve_call(
                    module, sub, enclosing_class=info.class_qualname
                ):
                    edges.append(target.qualname)
            self.callees[info.qualname] = tuple(sorted(set(edges)))
            self.call_terminal_names[info.qualname] = tuple(sorted(set(names)))

    def functions_calling(self, names: frozenset) -> frozenset:
        """Functions whose body *directly* calls any terminal name in ``names``."""
        return frozenset(
            qual
            for qual in sorted(self.call_terminal_names)
            if names & set(self.call_terminal_names[qual])
        )

    def reaching(self, targets: frozenset) -> frozenset:
        """Transitive closure: functions that can reach ``targets``."""
        reaching = set(targets)
        changed = True
        while changed:
            changed = False
            for qual in sorted(self.callees):
                if qual in reaching:
                    continue
                if any(callee in reaching for callee in self.callees[qual]):
                    reaching.add(qual)
                    changed = True
        return frozenset(reaching)
