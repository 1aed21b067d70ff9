"""ANON — anonymity-invariant rules.

The paper's core claim (Zhou & Yow, Sec. 3) is that ANT/AGFW keep real
node identities and MAC addresses off the air: packets name the next hop
by *pseudonym*, the destination by *trapdoor*, and every frame goes to
the broadcast address.  Related work (ANAP's spoofing analysis) shows
how easily an "anonymous" protocol leaks identity through an
implementation side channel rather than the design — and those side
channels cross function boundaries.  These rules mechanize the
invariant with an *interprocedural* taint analysis:

==========  ===========================================================
ANON-001    a node-identity expression (``node.identity``, ``*_identity``
            attributes, certificate ``subject``, ``node_id``) reaches a
            wire-visible ``Packet`` constructor argument or field
ANON-002    a link-layer address (``node.address``, ``mac_for_node``,
            ``MacAddress(...)``) reaches a ``Packet`` field — addresses
            belong to MAC frames, and AGFW frames are broadcast-only
==========  ===========================================================

On top of a per-function walk, the engine consults project-wide
facts from :mod:`repro.analysis.summaries`:

* **function summaries** — a helper that returns its argument (or a
  seed) taints its call sites, so identities laundered through
  ``def make_src(node): return node.identity`` are caught where they
  hit the packet;
* **field taint** — ``(class, attr)`` pairs ever assigned a seed
  anywhere in the project, so an identity stored into a header object
  in one module is still tainted when another module serializes it;
* **call-site injection** — parameters that some caller feeds a tainted
  value (or a packet instance) are tainted (or sink-typed) inside the
  callee, so the leak is flagged even when seed and sink live in
  different modules.

Taint is *cleansed* by the sanctioned transforms: trapdoor sealing,
ALS encrypted-index construction (``make_index``), hashing, signing and
encryption — the paths the paper itself routes identities through.
``crypto/`` and the trapdoor factory are allowlisted wholesale: their
whole job is handling identities before they are sealed.

Deliberate violations — the GPSR/DLM *baselines* leak identities by
design, that is the comparison the paper draws — carry
``# repro: noqa[ANON-001]`` annotations that double as a catalog of
every cleartext identity field in the codebase.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    ModuleContext,
    ProjectContext,
    Rule,
    register,
)
from repro.analysis.dataflow import (
    SANITIZERS,
    SEED,
    ClassEnv,
    LabelEvaluator,
    SeedSpec,
)

__all__ = [
    "IDENTITY_SPEC",
    "MAC_SPEC",
    "IdentityIntoPacket",
    "MacAddressIntoPacket",
    "SANITIZERS",
    "TaintWalker",
]

#: The two seed families, as data (shared with the summary builder).
IDENTITY_SPEC = SeedSpec(
    attr_exact=frozenset({"identity", "node_id", "subject"}),
    attr_suffixes=("_identity",),
    param_names=frozenset({"identity", "subject"}),
    calls=frozenset(),
    what="identity",
)

MAC_SPEC = SeedSpec(
    attr_exact=frozenset({"address", "mac"}),
    attr_suffixes=("_mac", "_address"),
    param_names=frozenset({"address", "mac"}),
    calls=frozenset({"mac_for_node", "MacAddress"}),
    what="MAC address",
)


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class TaintWalker:
    """Per-scope taint propagation for one seed family.

    Flow-insensitive within a scope: a variable assigned a tainted
    expression anywhere taints later uses.  That overshoots rarely
    (reassignment to a clean value) and never under-shoots, which is
    the right trade-off for an invariant checker.

    Expression evaluation is delegated to the label dataflow with the
    project's function summaries, field-taint facts and class typing
    for ``scope`` attached.
    """

    def __init__(
        self,
        module: ModuleContext,
        project: ProjectContext,
        scope: ast.AST,
        spec: SeedSpec,
    ) -> None:
        self.module = module
        self.spec = spec
        self.tainted_vars: Set[str] = set()
        summaries = project.summaries_for(spec)
        table = project.symbol_table
        info = table.function_for_node(scope)
        enclosing_class = info.class_qualname if info is not None else None
        #: Params some caller feeds a tainted value (callgraph injection)
        #: or a wire-visible packet instance.
        self.injected_params: FrozenSet[str] = frozenset()
        self.packet_params: FrozenSet[str] = frozenset()
        if info is not None:
            self.injected_params = summaries.tainted_params.get(info.qualname, frozenset())
            self.packet_params = summaries.packet_params.get(info.qualname, frozenset())
        self.class_env = ClassEnv(
            module,
            table,
            scope,
            enclosing_class=enclosing_class,
            returns_class=summaries.returns_class,
        )
        self._evaluator = LabelEvaluator(
            module,
            spec,
            table=table,
            env={},
            summaries=summaries.return_labels,
            tainted_fields=summaries.tainted_fields,
            class_env=self.class_env,
            enclosing_class=enclosing_class,
            packet_class_names=frozenset(project.packet_classes),
        )

    def add_taint(self, name: str) -> None:
        self.tainted_vars.add(name)
        self._evaluator.env[name] = frozenset({SEED})

    # ----------------------------------------------------------- seeding
    def seed_params(self, func: ast.AST) -> None:
        """Parameters tainted by *name* or by call-site injection."""
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        args = func.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ):
            if (
                arg.arg in self.spec.param_names
                or self.spec.name_matches(arg.arg)
                or arg.arg in self.injected_params
            ):
                self.add_taint(arg.arg)

    def propagate(self, nodes: Sequence[ast.AST]) -> None:
        """Fixpoint over simple assignments among the scope's own nodes."""
        assignments: List[Tuple[str, ast.AST]] = []
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    name = self._assignable_name(target)
                    if name is not None:
                        assignments.append((name, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                name = self._assignable_name(node.target)
                if name is not None:
                    assignments.append((name, node.value))
        changed = True
        while changed:
            changed = False
            for name, value in assignments:
                if name not in self.tainted_vars and self.is_tainted(value):
                    self.add_taint(name)
                    changed = True

    @staticmethod
    def _assignable_name(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        return None

    # ------------------------------------------------------------ queries
    def is_tainted(self, node: ast.AST) -> bool:
        """Does the expression (transitively) carry an identity?"""
        return SEED in self._evaluator.labels(node)


def _split_scope(scope: ast.AST) -> Tuple[List[ast.AST], List[ast.AST]]:
    """Partition a scope's subtree into (own nodes, nested function defs).

    Descent stops at nested ``def``s — they form their own taint scope —
    but continues through every other construct (including class bodies,
    so dataclass field defaults are checked at module level).
    """
    own: List[ast.AST] = []
    nested: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.append(child)
            else:
                own.append(child)
                visit(child)

    visit(scope)
    return own, nested


class _PacketTaintRule(Rule):
    """Shared sink detection: taint reaching packet constructors/fields."""

    #: the seed family; overridden by concrete rules
    spec: SeedSpec = IDENTITY_SPEC

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        # Walk each scope (module, then each function) with its own taint
        # state; nested functions inherit the enclosing scope's taint —
        # closures like AGFW's deferred ``_launch()`` read outer locals.
        yield from self._check_scope(module, project, module.tree, inherited=frozenset())

    def _check_scope(
        self,
        module: ModuleContext,
        project: ProjectContext,
        scope: ast.AST,
        inherited: frozenset,
    ) -> Iterator[Finding]:
        walker = TaintWalker(module, project, scope, self.spec)
        for name in sorted(inherited):
            walker.add_taint(name)
        walker.seed_params(scope)
        own, nested = _split_scope(scope)
        walker.propagate(own)
        packet_vars = self._packet_vars(module, project, own, walker)

        for node in own:
            yield from self._check_node(module, project, node, walker, packet_vars)

        for child in nested:
            yield from self._check_scope(
                module, project, child, inherited=frozenset(walker.tainted_vars)
            )

    def _packet_vars(
        self,
        module: ModuleContext,
        project: ProjectContext,
        nodes: Sequence[ast.AST],
        walker: TaintWalker,
    ) -> Set[str]:
        """Local names bound to packet instances (``p = AgfwData(...)``).

        Also: parameters that call sites feed packet instances, and names
        whose inferred class (constructor elsewhere, annotation, summary
        ``returns_class``) is a packet class.
        """
        names: Set[str] = set()
        for node in nodes:
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            callee = _terminal_name(node.value.func)
            if callee is None or not project.is_packet_class(module, callee):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        names |= walker.packet_params
        class_env = walker.class_env
        table = project.symbol_table
        for name in sorted(class_env.vars):
            cinfo = table.classes.get(class_env.vars[name])
            if cinfo is not None and cinfo.name in project.packet_classes:
                names.add(name)
        return names

    @staticmethod
    def _clones_non_packet(
        node: ast.Call, project: ProjectContext, walker: TaintWalker
    ) -> bool:
        """Is the cloned object *known* to be a non-packet class?

        ``pkt.replace(...)`` clones its receiver; ``dataclasses.replace
        (obj, ...)`` clones its first positional argument.  When the
        class environment types that object as an analyzed class outside
        the packet hierarchy (a Certificate, a config record), the clone
        is not wire-visible and the sink is skipped.  Unknown types stay
        conservative (still a sink) — precision only ever *removes*
        reports the interprocedural typing can justify removing.
        """
        env = walker.class_env
        if not isinstance(node.func, ast.Attribute):
            return False
        cloned: Optional[ast.AST] = node.func.value
        if (
            isinstance(cloned, ast.Name)
            and cloned.id in walker.module.import_aliases
            and node.args
        ):
            cloned = node.args[0]  # module-style: dataclasses.replace(obj, ...)
        if cloned is None:
            return False
        cls = env.class_of(cloned)
        if cls is None:
            return False
        cinfo = project.symbol_table.classes.get(cls)
        return cinfo is not None and cinfo.name not in project.packet_classes

    def _check_node(
        self,
        module: ModuleContext,
        project: ProjectContext,
        node: ast.AST,
        walker: TaintWalker,
        packet_vars: Set[str],
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            callee = _terminal_name(node.func)
            is_packet_ctor = callee is not None and project.is_packet_class(module, callee)
            is_clone = callee in {"clone_for_forwarding", "replace"} and isinstance(
                node.func, ast.Attribute
            )
            if is_clone and self._clones_non_packet(node, project, walker):
                is_clone = False
            if is_packet_ctor or is_clone:
                sink = callee if is_packet_ctor else "clone/replace"
                for position, arg in enumerate(node.args):
                    if walker.is_tainted(arg):
                        yield self.finding(
                            module,
                            arg,
                            f"node {self.spec.what} flows into wire-visible "
                            f"{sink}() positional arg {position}; use a "
                            "pseudonym or seal it in a trapdoor",
                        )
                for keyword in node.keywords:
                    if keyword.arg is not None and walker.is_tainted(keyword.value):
                        yield self.finding(
                            module,
                            keyword.value,
                            f"node {self.spec.what} flows into wire-visible "
                            f"{sink}(... {keyword.arg}=...); use a pseudonym "
                            "or seal it in a trapdoor",
                        )
        elif isinstance(node, ast.Assign):
            # ``packet.field = tainted`` on a known packet variable.
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in packet_vars
                    and walker.is_tainted(node.value)
                ):
                    yield self.finding(
                        module,
                        node,
                        f"node {self.spec.what} assigned to packet field "
                        f"'{target.value.id}.{target.attr}'; wire-visible "
                        "headers must carry pseudonyms or trapdoors",
                    )


@register
class IdentityIntoPacket(_PacketTaintRule):
    """ANON-001: real node identity reaching a wire-visible packet field.

    The ANT invariant: hellos carry ``<pseudonym, location, ts>``, data
    carries ``<loc_d, pseudonym, trapdoor>`` — never ``node.identity``,
    a certificate subject, or anything derived from them, except through
    the sanctioned sealed/hashed forms.  Interprocedural: helper
    returns, header-object fields, and tainted call-site arguments are
    tracked across modules.
    """

    id = "ANON-001"
    name = "identity-into-packet"
    rationale = (
        "A real identity in a packet field deanonymizes the node to any "
        "sniffer; the paper's design only ever sends pseudonyms, trapdoors, "
        "and encrypted indexes."
    )
    exempt_paths = ("crypto/*", "core/trapdoor.py")
    spec = IDENTITY_SPEC


@register
class MacAddressIntoPacket(_PacketTaintRule):
    """ANON-002: link-layer address reaching a network-layer packet field.

    AGFW sends every frame to the broadcast address precisely so that no
    real MAC appears on the air; a MAC address inside a *packet* header
    would undo that at the layer above.  Addresses belong to
    :mod:`repro.net.mac.frames`, nowhere else.
    """

    id = "ANON-002"
    name = "mac-address-into-packet"
    rationale = (
        "AGFW transmissions are MAC broadcasts so no station address is "
        "wire-visible; a MacAddress in a packet field reintroduces the "
        "identifier the pseudonym scheme removes."
    )
    exempt_paths = ("crypto/*", "net/mac/*", "net/addresses.py")
    spec = MAC_SPEC
