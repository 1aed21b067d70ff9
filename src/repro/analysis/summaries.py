"""Function taint summaries and project determinism facts.

Built once per run over the whole analyzed tree, consumed by the ANON
rules (interprocedural taint) and DET-009 (unordered iteration feeding
the scheduler).  Everything here is a bounded, monotone fixpoint over
finite label sets, so it terminates on arbitrary call cycles — mutual
recursion just stops adding labels after a round.

Per :class:`~repro.analysis.dataflow.SeedSpec` family,
:class:`ProjectSummaries` holds:

* ``return_labels[qualname]`` — which labels a call's result carries:
  ``seed`` (the function manufactures taint, e.g. ``return
  node.identity``) and/or ``param:<name>`` (taint is whatever that
  argument carried — the laundering-helper shape ANON-001 was blind to);
* ``returns_class[qualname]`` — the analyzed class a function returns,
  when a single constructor/annotation makes it obvious (types header
  objects across module boundaries);
* ``tainted_fields`` — ``(class_qualname, attr)`` pairs ever assigned a
  seed-carrying value anywhere in the project (identity stored into a
  header object in one module, read out in another);
* ``tainted_params[qualname]`` / ``packet_params[qualname]`` — call-site
  injection: parameters that *some* caller feeds a tainted value or a
  wire-visible packet instance, so the callee's body is checked under
  that assumption.

:class:`DeterminismFacts` is the DET-side product: project-wide
set-typed attribute names, set-returning functions, and the transitive
set of functions that can reach the event scheduler or trace emission.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    SymbolTable,
    terminal_name,
)
from repro.analysis.core import ModuleContext
from repro.analysis.dataflow import (
    SEED,
    ClassEnv,
    LabelEvaluator,
    SeedSpec,
    bind_call_args,
    param_label,
)

__all__ = ["DeterminismFacts", "ProjectSummaries", "SCHEDULER_CALL_NAMES"]

#: Terminal call names that put work on the event queue or the trace
#: stream — the sinks whose input *order* is wire/trace-visible.
SCHEDULER_CALL_NAMES = frozenset({"schedule", "call_later", "emit"})

#: Fixpoint round cap — label sets are tiny, real projects converge in
#: 2-4 rounds; the cap only guards pathological fixture graphs.
_MAX_ROUNDS = 12


def _annotation_class(table: SymbolTable, module: ModuleContext, ann: Optional[ast.AST]):
    if ann is None:
        return None
    base = ann.value if isinstance(ann, ast.Subscript) else ann
    name = terminal_name(base)
    if name is None:
        return None
    cinfo = table.resolve_class(module, name)
    return cinfo.qualname if cinfo is not None else None


class ProjectSummaries:
    """Interprocedural taint facts for one seed family."""

    def __init__(
        self,
        modules: List[ModuleContext],
        table: SymbolTable,
        spec: SeedSpec,
        packet_classes: FrozenSet[str] = frozenset(),
    ) -> None:
        self.spec = spec
        self.table = table
        self._modules = {m.path: m for m in modules}
        self.return_labels: Dict[str, FrozenSet[str]] = {
            q: frozenset() for q in table.functions
        }
        self.returns_class: Dict[str, Optional[str]] = {}
        self.tainted_fields: FrozenSet[Tuple[str, str]] = frozenset()
        self.tainted_params: Dict[str, FrozenSet[str]] = {}
        self.packet_params: Dict[str, FrozenSet[str]] = {}
        self._packet_class_names = packet_classes
        self._compute_returns_class()
        self._fixpoint_return_labels()
        self._fixpoint_fields_and_params()

    # ----------------------------------------------------------- class typing
    def _compute_returns_class(self) -> None:
        for qual in sorted(self.table.functions):
            info = self.table.functions[qual]
            module = self._modules[info.module_path]
            node = info.node
            cls = _annotation_class(self.table, module, getattr(node, "returns", None))
            if cls is None:
                env = ClassEnv(
                    module, self.table, node, enclosing_class=info.class_qualname
                )
                classes: Set[str] = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Return) and sub.value is not None:
                        got = env.class_of(sub.value)
                        if got is None:
                            classes = set()
                            break
                        classes.add(got)
                if len(classes) == 1:
                    cls = classes.pop()
            self.returns_class[qual] = cls

    # ------------------------------------------------------------ return labels
    def _function_env(
        self, info: FunctionInfo, tainted: FrozenSet[str] = frozenset()
    ) -> Dict[str, FrozenSet[str]]:
        env: Dict[str, FrozenSet[str]] = {}
        for name in info.params():
            labels: FrozenSet[str] = frozenset({param_label(name)})
            if name in tainted or self.spec.name_matches(name) or (
                name in self.spec.param_names
            ):
                labels = labels | {SEED}
            env[name] = labels
        return env

    def _evaluator(
        self,
        info: FunctionInfo,
        env: Dict[str, FrozenSet[str]],
        with_fields: bool = False,
    ) -> LabelEvaluator:
        module = self._modules[info.module_path]
        class_env = ClassEnv(
            module,
            self.table,
            info.node,
            enclosing_class=info.class_qualname,
            returns_class=self.returns_class,
        )
        return LabelEvaluator(
            module,
            self.spec,
            table=self.table,
            env=env,
            summaries=self.return_labels,
            tainted_fields=self.tainted_fields if with_fields else frozenset(),
            class_env=class_env,
            enclosing_class=info.class_qualname,
            packet_class_names=self._packet_class_names,
        )

    def _fixpoint_return_labels(self) -> None:
        for _ in range(_MAX_ROUNDS):
            changed = False
            for qual in sorted(self.table.functions):
                info = self.table.functions[qual]
                env = self._function_env(info)
                evaluator = self._evaluator(info, env)
                self._propagate_assignments(info, evaluator)
                labels: FrozenSet[str] = frozenset()
                for sub in ast.walk(info.node):
                    if isinstance(sub, ast.Return) and sub.value is not None:
                        labels = labels | evaluator.labels(sub.value)
                merged = self.return_labels[qual] | labels
                if merged != self.return_labels[qual]:
                    self.return_labels[qual] = merged
                    changed = True
            if not changed:
                break

    @staticmethod
    def _propagate_assignments(info: FunctionInfo, evaluator: LabelEvaluator) -> None:
        """Flow-insensitive local fixpoint: assigned names absorb labels."""
        assignments: List[Tuple[str, ast.AST]] = []
        for sub in ast.walk(info.node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        assignments.append((target.id, sub.value))
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                if isinstance(sub.target, ast.Name):
                    assignments.append((sub.target.id, sub.value))
            elif isinstance(sub, ast.AugAssign):
                if isinstance(sub.target, ast.Name):
                    assignments.append((sub.target.id, sub.value))
        for _ in range(_MAX_ROUNDS):
            changed = False
            for name, value in assignments:
                labels = evaluator.labels(value)
                have = evaluator.env.get(name, frozenset())
                if not labels <= have:
                    evaluator.env[name] = have | labels
                    changed = True
            if not changed:
                break

    # -------------------------------------------- field taint + param injection
    def _fixpoint_fields_and_params(self) -> None:
        tainted_params: Dict[str, Set[str]] = {q: set() for q in self.table.functions}
        packet_params: Dict[str, Set[str]] = {q: set() for q in self.table.functions}
        fields: Set[Tuple[str, str]] = set()

        for _ in range(_MAX_ROUNDS):
            changed = False
            self.tainted_fields = frozenset(fields)
            for qual in sorted(self.table.functions):
                info = self.table.functions[qual]
                env = self._function_env(info, frozenset(tainted_params[qual]))
                evaluator = self._evaluator(info, env, with_fields=True)
                self._propagate_assignments(info, evaluator)
                class_env = evaluator.class_env
                assert class_env is not None

                for sub in ast.walk(info.node):
                    # (a) ``obj.attr = <seed>`` marks (class-of-obj, attr).
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if not isinstance(target, ast.Attribute):
                                continue
                            cls = class_env.class_of(target.value)
                            if cls is None:
                                continue
                            if SEED in evaluator.labels(sub.value):
                                key = (cls, target.attr)
                                if key not in fields:
                                    fields.add(key)
                                    changed = True
                    # (b) call sites inject taint / packet-ness into params.
                    elif isinstance(sub, ast.Call):
                        for target_info in self.table.resolve_call(
                            self._modules[info.module_path],
                            sub,
                            enclosing_class=info.class_qualname,
                            class_of=class_env.class_of,
                        ):
                            bound = bind_call_args(target_info, sub)
                            for pname, arg in sorted(bound.items()):
                                if SEED in evaluator.labels(arg):
                                    if pname not in tainted_params[target_info.qualname]:
                                        tainted_params[target_info.qualname].add(pname)
                                        changed = True
                                if self._is_packet_expr(class_env, arg):
                                    if pname not in packet_params[target_info.qualname]:
                                        packet_params[target_info.qualname].add(pname)
                                        changed = True
                # (c) constructor keywords: ``Header(origin=<seed>)``.
                module = self._modules[info.module_path]
                for sub in ast.walk(info.node):
                    if not isinstance(sub, ast.Call):
                        continue
                    name = terminal_name(sub.func)
                    if name is None:
                        continue
                    cinfo = self.table.resolve_class(module, name)
                    if cinfo is None or cinfo.name in self._packet_class_names:
                        continue
                    for keyword in sub.keywords:
                        if keyword.arg is None:
                            continue
                        if SEED in evaluator.labels(keyword.value):
                            key = (cinfo.qualname, keyword.arg)
                            if key not in fields:
                                fields.add(key)
                                changed = True
            if not changed:
                break

        self.tainted_fields = frozenset(fields)
        self.tainted_params = {
            q: frozenset(v) for q, v in tainted_params.items() if v
        }
        self.packet_params = {
            q: frozenset(v) for q, v in packet_params.items() if v
        }

    def _is_packet_expr(self, class_env: ClassEnv, node: ast.AST) -> bool:
        """Does ``node`` evidently hold a wire-visible packet instance?"""
        cls = class_env.class_of(node)
        if cls is not None:
            cinfo = self.table.classes.get(cls)
            if cinfo is not None and cinfo.name in self._packet_class_names:
                return True
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            return name in self._packet_class_names
        return False

    # ------------------------------------------------------------- debug/cache
    def digest_payload(self) -> dict:
        """Deterministic serialization for the incremental-cache key."""
        return {
            "spec": sorted(self.spec.attr_exact),
            "return_labels": {
                q: sorted(v) for q, v in sorted(self.return_labels.items()) if v
            },
            "returns_class": {
                q: c for q, c in sorted(self.returns_class.items()) if c
            },
            "tainted_fields": sorted(map(list, self.tainted_fields)),
            "tainted_params": {
                q: sorted(v) for q, v in sorted(self.tainted_params.items())
            },
            "packet_params": {
                q: sorted(v) for q, v in sorted(self.packet_params.items())
            },
        }


@dataclass
class DeterminismFacts:
    """Project-wide ordering facts for the DET-009 pass."""

    #: Attribute names annotated or assigned as ``set``/``frozenset``
    #: anywhere in the project (``self.members: set = set()``).
    set_attrs: FrozenSet[str] = frozenset()
    #: Qualnames of functions that evidently return a set.
    set_returning: FrozenSet[str] = frozenset()
    #: Functions that can (transitively) schedule events or emit trace.
    schedulers: FrozenSet[str] = frozenset()
    #: The underlying call graph (exposed for rules and tests).
    callgraph: Optional[CallGraph] = field(default=None, repr=False)

    @classmethod
    def build(cls, modules: List[ModuleContext], table: SymbolTable) -> "DeterminismFacts":
        set_attrs: Set[str] = set()
        set_returning: Set[str] = set()

        def is_set_annotation(ann: ast.AST) -> bool:
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            return terminal_name(base) in {
                "set", "Set", "frozenset", "FrozenSet", "MutableSet",
            }

        def is_set_value(value: ast.AST) -> bool:
            if isinstance(value, (ast.Set, ast.SetComp)):
                return True
            if isinstance(value, ast.Call):
                return terminal_name(value.func) in {"set", "frozenset"}
            return False

        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.AnnAssign):
                    target = node.target
                    if isinstance(target, ast.Attribute) and is_set_annotation(
                        node.annotation
                    ):
                        set_attrs.add(target.attr)
                    # Class-body field annotations: ``members: set[str]``.
                    if isinstance(target, ast.Name) and is_set_annotation(node.annotation):
                        parent = module.parent_of(node)
                        if isinstance(parent, ast.ClassDef):
                            set_attrs.add(target.id)
                elif isinstance(node, ast.Assign) and is_set_value(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Attribute):
                            set_attrs.add(target.attr)

        for qual in sorted(table.functions):
            info = table.functions[qual]
            node = info.node
            returns = getattr(node, "returns", None)
            if returns is not None and is_set_annotation(returns):
                set_returning.add(qual)
                continue
            returned = [
                sub.value
                for sub in ast.walk(node)
                if isinstance(sub, ast.Return) and sub.value is not None
            ]
            if returned and all(is_set_value(v) for v in returned):
                set_returning.add(qual)

        graph = CallGraph(table)
        direct = graph.functions_calling(SCHEDULER_CALL_NAMES)
        schedulers = graph.reaching(direct)
        return cls(
            set_attrs=frozenset(set_attrs),
            set_returning=frozenset(set_returning),
            schedulers=schedulers,
            callgraph=graph,
        )

    def digest_payload(self) -> dict:
        return {
            "set_attrs": sorted(self.set_attrs),
            "set_returning": sorted(self.set_returning),
            "schedulers": sorted(self.schedulers),
        }
