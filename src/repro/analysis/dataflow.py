"""Label-based taint dataflow shared by summaries and the ANON rules.

The PR 1 taint walk answered one boolean question per expression: *does
this carry a seed?*  Interprocedural analysis needs a slightly richer
answer — *whose* taint does it carry — so function summaries can be
parametric in their arguments (``def wrap(x): return [x]`` propagates
whatever ``x`` carries, it is not tainted per se).  Taint is therefore a
small set of labels:

* ``"seed"`` — the expression carries an actual identity/MAC seed
  (``node.identity``, a project-wide tainted field, an injected tainted
  parameter, a call summarized as seed-returning);
* ``"param:<name>"`` — the expression's taint is whatever the enclosing
  function's parameter ``<name>`` carries (only used while *computing*
  summaries; at check time parameters are either tainted or not).

:class:`SeedSpec` captures one seed family (identity for ANON-001, MAC
addresses for ANON-002) as data, so the same machinery serves both.
Sanitizer calls (trapdoor sealing, ``make_index``, hashing, signing,
encryption) erase every label — the paper-sanctioned cleansing set is
unchanged from PR 1 and lives here so both layers agree on it.

Evaluation mirrors the PR 1 walker's conservative shape: any construct
it does not understand unions the labels of its children, and an
*unresolved* call taints its result if any argument (or the receiver)
is tainted.  A call resolved to an analyzed function with a summary is
where precision is gained: the summary says exactly which parameters
flow to the return value, and a summary with no return labels cleanses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.analysis.callgraph import FunctionInfo, SymbolTable, terminal_name
from repro.analysis.core import ModuleContext

__all__ = [
    "SANITIZERS",
    "SEED",
    "ClassEnv",
    "LabelEvaluator",
    "SeedSpec",
    "bind_call_args",
    "param_label",
]

#: Call targets (terminal names) whose *result* no longer carries taint:
#: the paper-sanctioned ways an identity may be transformed before it is
#: put on the wire.
SANITIZERS = frozenset(
    {
        "seal",            # TrapdoorFactory.seal -> trapdoor ciphertext
        "make_index",      # ALS encrypted index h(A|B) / E_B(A|B)
        "sha256",
        "sha256_hex",
        "hmac_sha256",     # keyed hash: the pseudonym derivation n = h(pr, id)
        "derive_pseudonym",
        "fingerprint",
        "derive_seed",
        "home_cells",      # grid cells derived from an identity via SHA-256
        "center_of",
        "encrypt",
        "encrypt_hybrid",
        "sign",
        "sign_hello",
        "ring_sign",
        "hash",
        "ref_bytes",
        "len",
    }
)

#: The concrete-taint label.
SEED = "seed"

#: Attribute names that keep taint when read off a tainted record: a
#: position keyed by identity is exactly the (identity, location)
#: doublet the paper hides; a timestamp on the same record is not.
LINKED_EXACT = frozenset({"position", "location", "loc"})
LINKED_SUFFIXES = ("_position", "_location", "_loc")

_EMPTY: FrozenSet[str] = frozenset()


def param_label(name: str) -> str:
    return f"param:{name}"


@dataclass(frozen=True)
class SeedSpec:
    """One taint family: what counts as a seed, by name and by call."""

    attr_exact: FrozenSet[str]
    attr_suffixes: Tuple[str, ...]
    param_names: FrozenSet[str]
    calls: FrozenSet[str]
    what: str = "identity"

    def name_matches(self, name: str) -> bool:
        lowered = name.lower()
        return lowered in self.attr_exact or lowered.endswith(self.attr_suffixes)


class ClassEnv:
    """Best-effort local typing: which analyzed class does a name hold?

    Sources, in priority order: ``self``/``cls`` inside a method, a
    parameter annotation naming an analyzed class, an assignment from a
    constructor call (``hdr = RouteHeader(...)``), and an assignment
    from a call whose summary records a ``returns_class``.
    """

    def __init__(
        self,
        module: ModuleContext,
        table: SymbolTable,
        scope: ast.AST,
        enclosing_class: Optional[str] = None,
        returns_class: Optional[Mapping[str, Optional[str]]] = None,
    ) -> None:
        self.module = module
        self.table = table
        self.enclosing_class = enclosing_class
        self._vars: Dict[str, str] = {}
        returns_class = returns_class or {}

        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.annotation is None:
                    continue
                ann = terminal_name(
                    arg.annotation.value
                    if isinstance(arg.annotation, ast.Subscript)
                    else arg.annotation
                )
                if ann is None:
                    continue
                cinfo = table.resolve_class(module, ann)
                if cinfo is not None:
                    self._vars[arg.arg] = cinfo.qualname

        # Assignments anywhere in the scope (flow-insensitive, like the
        # taint walk): last writer wins deterministically by line order.
        for node in ast.walk(scope):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            cls = self._class_of_call(node.value, returns_class)
            if cls is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._vars[target.id] = cls

    @property
    def vars(self) -> Dict[str, str]:
        """``local name -> class qualname`` (read-only view for rules)."""
        return self._vars

    def _class_of_call(
        self, call: ast.Call, returns_class: Mapping[str, Optional[str]]
    ) -> Optional[str]:
        name = terminal_name(call.func)
        if name is None:
            return None
        cinfo = self.table.resolve_class(self.module, name)
        if cinfo is not None:
            return cinfo.qualname
        for target in self.table.resolve_call(
            self.module, call, enclosing_class=self.enclosing_class
        ):
            cls = returns_class.get(target.qualname)
            if cls is not None:
                return cls
        return None

    def class_of(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls"):
                return self.enclosing_class
            return self._vars.get(node.id)
        if isinstance(node, ast.Call):
            return self._class_of_call(node, {})
        return None


def bind_call_args(info: FunctionInfo, call: ast.Call) -> Dict[str, ast.AST]:
    """Map callee parameter names to the caller's argument expressions.

    Methods called through an attribute (``obj.m(a)``) skip the ``self``
    slot; ``*args``/``**kwargs`` splats are ignored (the conservative
    call fallback covers them).
    """
    params = info.params()
    if info.is_method and isinstance(call.func, ast.Attribute) and params:
        params = params[1:]
    bound: Dict[str, ast.AST] = {}
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            continue
        if position < len(params):
            bound[params[position]] = arg
    for keyword in call.keywords:
        if keyword.arg is not None:
            bound[keyword.arg] = keyword.value
    return bound


class LabelEvaluator:
    """Expression → taint-label set, under one seed family.

    ``env`` maps in-scope variable names to label sets (parameters get
    ``{"param:<name>"}`` during summary computation, ``{"seed"}`` when a
    call-site injection marked them tainted).  ``summaries`` maps
    qualnames to per-function return-label sets; ``tainted_fields`` is
    the project-wide set of ``(class_qualname, attr)`` pairs known to
    hold seeds.  All three default to empty.
    """

    def __init__(
        self,
        module: ModuleContext,
        spec: SeedSpec,
        table: Optional[SymbolTable] = None,
        env: Optional[Mapping[str, FrozenSet[str]]] = None,
        summaries: Optional[Mapping[str, FrozenSet[str]]] = None,
        tainted_fields: Optional[FrozenSet[Tuple[str, str]]] = None,
        class_env: Optional[ClassEnv] = None,
        enclosing_class: Optional[str] = None,
        packet_class_names: FrozenSet[str] = frozenset(),
    ) -> None:
        self.module = module
        self.spec = spec
        self.table = table
        self.env: Dict[str, FrozenSet[str]] = dict(env or {})
        self.summaries = summaries or {}
        self.tainted_fields = tainted_fields or frozenset()
        self.class_env = class_env
        self.enclosing_class = enclosing_class
        self.packet_class_names = packet_class_names

    # ------------------------------------------------------------- plumbing
    def _resolve(self, call: ast.Call) -> Tuple[FunctionInfo, ...]:
        if self.table is None:
            return ()
        return self.table.resolve_call(
            self.module,
            call,
            enclosing_class=self.enclosing_class,
            class_of=self.class_env.class_of if self.class_env is not None else None,
        )

    def _field_is_tainted(self, node: ast.Attribute) -> bool:
        if not self.tainted_fields or self.class_env is None:
            return False
        cls = self.class_env.class_of(node.value)
        if cls is None:
            return False
        return (cls, node.attr) in self.tainted_fields

    # ------------------------------------------------------------ evaluation
    def labels(self, node: ast.AST) -> FrozenSet[str]:
        if isinstance(node, ast.Attribute):
            if self.spec.name_matches(node.attr):
                return frozenset({SEED})
            if self._field_is_tainted(node):
                return frozenset({SEED})
            lowered = node.attr.lower()
            if lowered in LINKED_EXACT or lowered.endswith(LINKED_SUFFIXES):
                return self.labels(node.value)
            return _EMPTY
        if isinstance(node, ast.Name):
            found = self.env.get(node.id, _EMPTY)
            if self.spec.name_matches(node.id):
                found = found | {SEED}
            return found
        if isinstance(node, ast.Call):
            return self._call_labels(node)
        if isinstance(node, ast.BoolOp):
            return self._union(node.values)
        if isinstance(node, ast.BinOp):
            return self.labels(node.left) | self.labels(node.right)
        if isinstance(node, ast.JoinedStr):
            return self._union(
                [v.value for v in node.values if isinstance(v, ast.FormattedValue)]
            )
        if isinstance(node, ast.FormattedValue):
            return self.labels(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self._union(node.elts)
        if isinstance(node, ast.Starred):
            return self.labels(node.value)
        if isinstance(node, ast.IfExp):
            return self.labels(node.body) | self.labels(node.orelse)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.labels(node.elt) | self._union([g.iter for g in node.generators])
        if isinstance(node, ast.Subscript):
            return self.labels(node.value)
        if isinstance(node, ast.Await):
            return self.labels(node.value)
        if isinstance(node, ast.NamedExpr):
            return self.labels(node.value)
        return _EMPTY

    def _union(self, nodes: Sequence[ast.AST]) -> FrozenSet[str]:
        out: FrozenSet[str] = _EMPTY
        for node in nodes:
            out = out | self.labels(node)
        return out

    def _is_packet_constructor(self, func_name: Optional[str]) -> bool:
        if func_name is None or not self.packet_class_names:
            return False
        origin = self.module.from_imports.get(func_name)
        if origin is not None:
            func_name = origin[1]
        return func_name in self.packet_class_names

    def _call_labels(self, node: ast.Call) -> FrozenSet[str]:
        func_name = terminal_name(node.func)
        if func_name in SANITIZERS:
            return _EMPTY
        if func_name in self.spec.calls:
            return frozenset({SEED})
        # A constructed packet is a *sink*, not a source: ANON-001/002
        # report tainted constructor args at the construction site, so the
        # resulting object must not re-taint every plumbing helper it is
        # handed to (a deliberately-leaky baseline construction would
        # otherwise cascade taint through generic _route/_consume params).
        # Identity-named *reads* off a packet stay tainted by name.
        if self._is_packet_constructor(func_name):
            return _EMPTY
        targets = self._resolve(node)
        if targets and all(t.qualname in self.summaries for t in targets):
            out: FrozenSet[str] = _EMPTY
            for target in targets:
                out = out | self._summary_labels(target, node)
            return out
        # Opaque call: conservative — taint flows through arguments and
        # the receiver (``identity.encode()``).
        parts: list[ast.AST] = [*node.args, *[kw.value for kw in node.keywords]]
        if isinstance(node.func, ast.Attribute):
            parts.append(node.func.value)
        return self._union(parts)

    def _summary_labels(self, target: FunctionInfo, call: ast.Call) -> FrozenSet[str]:
        summary = self.summaries[target.qualname]
        out: FrozenSet[str] = _EMPTY
        bound: Optional[Dict[str, ast.AST]] = None
        for label in sorted(summary):
            if label == SEED:
                out = out | {SEED}
                continue
            if label.startswith("param:"):
                if bound is None:
                    bound = bind_call_args(target, call)
                pname = label[len("param:") :]
                arg = bound.get(pname)
                if arg is not None:
                    out = out | self.labels(arg)
                elif (
                    target.is_method
                    and isinstance(call.func, ast.Attribute)
                    and target.params()
                    and pname == target.params()[0]
                ):
                    # ``param:self`` — the method propagates taint from
                    # its receiver (``record.format()`` styles).
                    out = out | self.labels(call.func.value)
        return out
