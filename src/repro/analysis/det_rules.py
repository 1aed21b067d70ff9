"""DET — determinism rules.

The reproduction's experiments (Fig. 1 sweeps, privacy-exposure audits)
are only trustworthy if a run is bit-reproducible from one master seed.
:class:`repro.sim.rng.RngRegistry` derives every stream from that seed;
these rules flag the ways code escapes it:

==========  ===========================================================
DET-001     the process-global ``random`` stream (module-level draws,
            or the bare module used as an rng object)
DET-002     unseeded ``random.Random()`` construction outside
            ``sim/rng.py``
DET-003     wall-clock / OS-entropy sources (``time.time``,
            ``datetime.now``, ``uuid4``, ``os.urandom``, ``secrets``)
DET-004     float ``==``/``!=`` against sim-time expressions
DET-005     iteration over a bare ``set`` where order can leak into
            event scheduling
DET-006     module-level mutable counters (``itertools.count`` at module
            scope, ``global`` int bumps) leaking state across Simulator
            instances in one process
DET-007     module-level mutable memo caches (empty dict/OrderedDict/
            defaultdict at module scope, ``functools.lru_cache``/
            ``functools.cache``) outside the audited
            ``repro.crypto.cache`` module
DET-008     ad-hoc priority queues (``heapq``/``bisect.insort`` calls)
            outside ``repro.sim`` — event ordering must flow through the
            Simulator's event queue, not side queues
DET-009     *interprocedural* DET-005: iteration over project-known
            unordered values (set-typed attributes, set-returning
            helpers from another module) inside any function that can
            transitively reach ``schedule``/``call_later``/``emit``
DET-010     address-dependent values: builtin ``id()`` as data, or
            ``sorted(key=id/hash)`` — ``id()`` is an interpreter heap
            address and differs across runs/processes (the
            ``Trapdoor.ref_bytes`` fallback bug class fixed in PR 5)
DET-011     module-level mutable containers (``[]``, ``set()``,
            ``bytearray()``, ``deque()``) — state that leaks from one
            sweep point into the next one a ``--jobs`` pool worker runs
DET-012     unsorted filesystem enumeration (``os.listdir``, ``glob``,
            ``Path.glob/rglob/iterdir``) — directory order is
            filesystem-dependent, so any derived ordering differs
            between machines unless wrapped in ``sorted(...)``
DET-013     numpy determinism escapes in the vectorized hot core:
            draws on the process-global ``numpy.random`` stream,
            unseeded ``default_rng()``/``RandomState()`` construction,
            ``np.sort``/``np.argsort`` without ``kind="stable"``
            (quicksort tie order is value-address dependent), and
            ``np.unique(..., return_index=True)`` (first-occurrence
            indices among equal keys inherit the unstable sort)
DET-014     nondeterministic multiprocessing patterns around the
            ``--jobs`` process pool: unordered iteration over
            worker/queue-shaped dicts inside scheduler-feeding
            functions, per-process identity (``os.getpid()``) or wall
            timers leaking into simulation state, and iteration over
            sets that crossed a pickle boundary (worker pipes, queues)
==========  ===========================================================

DET-009 consults the project call graph and cross-module set facts; the
others look at one module at a time.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ModuleContext, ProjectContext, Rule, register

__all__ = [
    "GlobalRandomStream",
    "UnseededRandom",
    "WallClockEntropy",
    "FloatTimeEquality",
    "SetIterationOrder",
    "ModuleLevelCounter",
    "ModuleLevelMemoCache",
    "AdHocEventQueue",
    "UnorderedIterationIntoScheduler",
    "AddressDependentValue",
    "ModuleLevelMutableState",
    "UnsortedFilesystemEnumeration",
    "NumpyDeterminismEscape",
    "MultiprocessingOrderEscape",
]

#: ``random`` module functions that draw from (or reseed) the global stream.
_GLOBAL_DRAWS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
        "expovariate", "betavariate", "gammavariate", "paretovariate",
        "weibullvariate", "vonmisesvariate", "triangular", "getrandbits",
        "randbytes", "binomialvariate", "seed", "setstate", "getstate",
    }
)


def _is_random_module_ref(module: ModuleContext, node: ast.AST) -> bool:
    """Does ``node`` name the ``random`` module itself?"""
    return (
        isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and module.resolves_to_module(node.id, "random")
    )


def _resolve_call_target(
    module: ModuleContext, func: ast.AST
) -> Optional[Tuple[str, str]]:
    """Resolve a call's function to ``(module, name)`` when statically known.

    Handles ``mod.attr(...)`` through ``import mod [as alias]`` and bare
    ``name(...)`` through ``from mod import name [as alias]``.
    """
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        target = module.import_aliases.get(func.value.id)
        if target is not None:
            return target, func.attr
        origin = module.from_imports.get(func.value.id)
        if origin is not None:
            # ``from datetime import datetime; datetime.now()`` resolves to
            # ("datetime.datetime", "now").
            return f"{origin[0]}.{origin[1]}", func.attr
        return None
    if isinstance(func, ast.Name):
        origin = module.from_imports.get(func.id)
        if origin is not None:
            return origin[0], origin[1]
        return None
    return None


@register
class GlobalRandomStream(Rule):
    """DET-001: any use of the process-global ``random`` stream.

    Draws from the module (``random.choice(...)``) are invisible to
    :class:`~repro.sim.rng.RngRegistry`: a second caller anywhere in the
    process perturbs the sequence and the run stops being reproducible.
    Passing the bare module as an rng object (``rng or random``) is the
    same bug in disguise.
    """

    id = "DET-001"
    name = "global-random-stream"
    rationale = (
        "Draws from the process-global random stream bypass RngRegistry; "
        "any other caller perturbs the sequence and breaks seed-reproducibility."
    )

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Name):
                continue
            if not _is_random_module_ref(module, node):
                # ``from random import shuffle`` style draws:
                origin = module.from_imports.get(getattr(node, "id", ""))
                if (
                    origin is not None
                    and origin[0] == "random"
                    and origin[1] in _GLOBAL_DRAWS
                    and isinstance(node.ctx, ast.Load)
                ):
                    yield self.finding(
                        module,
                        node,
                        f"'{node.id}' (= random.{origin[1]}) draws from the "
                        "process-global random stream; use an RngRegistry stream",
                    )
                continue
            parent = module.parent_of(node)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                if parent.attr in _GLOBAL_DRAWS:
                    yield self.finding(
                        module,
                        parent,
                        f"random.{parent.attr}() draws from the process-global "
                        "random stream; use an RngRegistry stream instead",
                    )
                # random.Random / random.SystemRandom etc. are judged by
                # DET-002 / DET-003; plain attribute access is fine here.
                continue
            # The bare module escaping as a value: ``rng = rng or random``,
            # ``f(random)``, ``self.rng = random`` ...
            yield self.finding(
                module,
                node,
                "the 'random' module used as an RNG object aliases the "
                "process-global stream; pass an explicit random.Random",
            )


@register
class UnseededRandom(Rule):
    """DET-002: ``random.Random()`` with no seed outside ``sim/rng.py``.

    An unseeded ``Random`` seeds itself from OS entropy — every run gets
    a different stream.  All streams must be derived from the master
    seed via :class:`~repro.sim.rng.RngRegistry` (which is the one place
    allowed to construct ``random.Random``).
    """

    id = "DET-002"
    name = "unseeded-random"
    rationale = (
        "random.Random() with no arguments seeds from OS entropy, so keygen, "
        "ring picking, and backoff differ between runs with the same master seed."
    )
    exempt_paths = ("sim/rng.py",)

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            func = node.func
            is_random_cls = (
                isinstance(func, ast.Attribute)
                and func.attr == "Random"
                and _is_random_module_ref(module, func.value)
            )
            if not is_random_cls and isinstance(func, ast.Name):
                origin = module.from_imports.get(func.id)
                is_random_cls = origin == ("random", "Random")
            if is_random_cls:
                yield self.finding(
                    module,
                    node,
                    "unseeded random.Random() draws OS entropy; require an "
                    "explicit rng or derive one via RngRegistry",
                )


#: ``(module, attr)`` call targets that read wall-clock time or OS entropy.
_FORBIDDEN_CALLS = {
    ("time", "time"): "time.time() reads the wall clock",
    ("time", "time_ns"): "time.time_ns() reads the wall clock",
    ("time", "localtime"): "time.localtime() reads the wall clock",
    ("time", "ctime"): "time.ctime() reads the wall clock",
    ("datetime.datetime", "now"): "datetime.now() reads the wall clock",
    ("datetime.datetime", "utcnow"): "datetime.utcnow() reads the wall clock",
    ("datetime.datetime", "today"): "datetime.today() reads the wall clock",
    ("datetime.date", "today"): "date.today() reads the wall clock",
    ("uuid", "uuid1"): "uuid1() mixes the wall clock and the MAC address",
    ("uuid", "uuid4"): "uuid4() draws OS entropy",
    ("os", "urandom"): "os.urandom() draws OS entropy",
    ("random", "SystemRandom"): "random.SystemRandom draws OS entropy",
}


@register
class WallClockEntropy(Rule):
    """DET-003: wall-clock time or OS entropy inside simulation code.

    Simulated time is ``sim.now``; freshness, pseudonym lifetimes and
    certificate windows must be driven by it.  ``time.perf_counter`` is
    deliberately *not* flagged: measuring how long a run took is fine,
    feeding the measurement back into the simulation is what breaks
    reproducibility (and that path goes through the flagged calls).
    """

    id = "DET-003"
    name = "wall-clock-entropy"
    rationale = (
        "Wall-clock reads and OS entropy differ between runs; simulated time "
        "must come from sim.now and randomness from RngRegistry streams."
    )

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_call_target(module, node.func)
            if target is None:
                continue
            reason = _FORBIDDEN_CALLS.get(target)
            if reason is None and target[0] == "secrets":
                reason = f"secrets.{target[1]}() draws OS entropy"
            if reason is None and target == ("datetime", "now"):
                # ``from datetime import datetime`` then ``datetime.now()``
                # resolves above; this covers ``import datetime`` + alias.
                reason = "datetime.now() reads the wall clock"
            if reason is not None:
                yield self.finding(
                    module,
                    node,
                    f"{reason}; not reproducible from the master seed "
                    "(use sim.now / an RngRegistry stream)",
                )


#: Terminal identifier fragments that mark an expression as sim-time-like.
_TIME_EXACT = frozenset(
    {"now", "time", "timestamp", "ts", "deadline", "expiry", "not_before", "not_after"}
)
_TIME_SUFFIXES = ("_time", "_at", "_deadline", "_timestamp", "_expiry")


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_time_expression(node: ast.AST) -> bool:
    name = _terminal_identifier(node)
    if name is None:
        return False
    lowered = name.lower()
    return lowered in _TIME_EXACT or lowered.endswith(_TIME_SUFFIXES)


def _is_integerized(node: ast.AST) -> bool:
    """``int(...)``/``round(...)`` wrappers or int literals compare exactly."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"int", "round"}
    return isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(
        node.value, bool
    )


@register
class FloatTimeEquality(Rule):
    """DET-004: exact float equality against sim-time expressions.

    Event times accumulate float error (``0.1 + 0.2 != 0.3``); a guard
    like ``if entry.timestamp == now`` silently stops matching once a
    scenario reorders additions, and delivery becomes seed-dependent in
    the worst way — only on some platforms.  Compare with a tolerance or
    compare integer tick counts.  Test files are exempt by default:
    asserting exact clock values against the deterministic engine is the
    point of the engine tests.
    """

    id = "DET-004"
    name = "float-time-equality"
    rationale = (
        "Float sim-time equality breaks under accumulation order; use a "
        "tolerance (math.isclose) or integer ticks."
    )
    exempt_paths = ("tests/*", "test_*.py", "conftest.py")

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                for side, other in ((left, right), (right, left)):
                    if _is_time_expression(side) and not _is_integerized(other):
                        yield self.finding(
                            module,
                            node,
                            f"exact {'==' if isinstance(op, ast.Eq) else '!='} on "
                            f"sim-time expression '{_terminal_identifier(side)}'; "
                            "float time accumulates error — use a tolerance or "
                            "integer ticks",
                        )
                        break


def _set_typed_symbols(tree: ast.Module) -> Set[str]:
    """Names/attributes annotated or assigned as sets anywhere in the module.

    Returns dotted keys: ``seen`` for locals, ``self.seen`` for instance
    attributes.  Intra-module and flow-insensitive on purpose — a symbol
    that is *ever* a set is treated as one.
    """

    def key_of(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
        ):
            return f"{target.value.id}.{target.attr}"
        return None

    def is_set_annotation(annotation: ast.AST) -> bool:
        base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        name = _terminal_identifier(base)
        return name in {"set", "Set", "frozenset", "FrozenSet", "MutableSet"}

    def is_set_value(value: ast.AST) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            name = _terminal_identifier(value.func)
            return name in {"set", "frozenset"}
        return False

    symbols: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and is_set_annotation(node.annotation):
            key = key_of(node.target)
            if key is not None:
                symbols.add(key)
        elif isinstance(node, ast.Assign) and is_set_value(node.value):
            for target in node.targets:
                key = key_of(target)
                if key is not None:
                    symbols.add(key)
    return symbols


@register
class SetIterationOrder(Rule):
    """DET-005: iterating a bare ``set`` where order matters.

    With string/tuple elements, set iteration order depends on
    ``PYTHONHASHSEED``; when the loop body schedules events or sends
    packets, two runs with the same master seed diverge.  Wrap the
    iterable in ``sorted(...)`` (cheap at simulation scales) or keep a
    list alongside the membership set.
    """

    id = "DET-005"
    name = "set-iteration-order"
    rationale = (
        "Set iteration order is hash-seed dependent; ordering leaks into "
        "event scheduling and breaks run-to-run reproducibility."
    )

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        set_symbols = _set_typed_symbols(module.tree)

        def is_set_expr(node: ast.AST) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call):
                return _terminal_identifier(node.func) in {"set", "frozenset"}
            if isinstance(node, ast.Name):
                return node.id in set_symbols
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                return f"{node.value.id}.{node.attr}" in set_symbols
            return False

        def emit(node: ast.AST, how: str) -> Finding:
            return self.finding(
                module,
                node,
                f"{how} over a bare set has hash-seed-dependent order; "
                "wrap in sorted(...) or keep an ordered companion list",
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and is_set_expr(node.iter):
                yield emit(node.iter, "for-loop iteration")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if is_set_expr(comp.iter):
                        yield emit(comp.iter, "comprehension iteration")
            elif isinstance(node, ast.Call):
                name = _terminal_identifier(node.func)
                if name in {"list", "tuple", "enumerate"} and node.args and is_set_expr(
                    node.args[0]
                ):
                    yield emit(node.args[0], f"{name}() conversion")


@register
class ModuleLevelCounter(Rule):
    """DET-006: module-level mutable counters in simulation-visible state.

    A counter bound at module scope (``_uid = itertools.count(1)``, or an
    int bumped through ``global``) lives as long as the *process*, not
    the :class:`~repro.sim.engine.Simulator`.  The second scenario built
    in one process starts mid-sequence, so any value that reaches trace
    output, a tie-breaker, or a hash makes back-to-back runs of the same
    seed differ — the bug class fixed by moving the medium's tx uid onto
    the ``RadioMedium`` instance.  The exempted files hold the audited
    exceptions: packet/frame uids must be unique across *all* nodes of a
    run, and their values are proven outcome-invisible (never compared,
    ordered on, or formatted into experiment output).  A violation would
    show in ``assert_reference_matches`` (``tests/conftest.py``): its two
    runs share one process, so the second starts mid-sequence and its
    trace would diverge.
    """

    id = "DET-006"
    name = "module-level-counter"
    rationale = (
        "Module-level counters outlive the Simulator: a second run in the "
        "same process starts mid-sequence, breaking same-seed reproducibility "
        "unless the values are provably outcome-invisible."
    )
    exempt_paths = (
        "net/packet.py",      # cross-node packet uids; values outcome-invisible
        "net/mac/frames.py",  # cross-node frame uids; values outcome-invisible
        "tests/*",
        "test_*.py",
        "conftest.py",
    )

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        # (a) ``name = itertools.count(...)`` at module scope.
        module_int_names: Set[str] = set()
        for stmt in module.tree.body:
            targets: Tuple[ast.AST, ...] = ()
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = tuple(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = (stmt.target,), stmt.value
            if value is None:
                continue
            if (
                isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)
            ):
                for target in targets:
                    if isinstance(target, ast.Name):
                        module_int_names.add(target.id)
            if (
                isinstance(value, ast.Call)
                and _resolve_call_target(module, value.func) == ("itertools", "count")
            ):
                yield self.finding(
                    module,
                    stmt,
                    "module-level itertools.count() outlives the Simulator; "
                    "hold the counter on the owning instance (cf. "
                    "RadioMedium._tx_uid) or audit & exempt this path",
                )
        # (b) ``global name`` + mutation of a module-level int.
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Global):
                continue
            for name in node.names:
                if name in module_int_names:
                    yield self.finding(
                        module,
                        node,
                        f"'global {name}' mutates a module-level int counter "
                        "that persists across Simulator instances; move it "
                        "onto the owning object",
                    )


#: Constructors whose module-level result is an (initially empty) mutable
#: mapping — the storage shape of an accumulator/memo cache.  Populated
#: dict *literals* are deliberately not flagged: those are lookup tables.
_CACHE_CONSTRUCTORS = frozenset({"dict", "OrderedDict", "defaultdict", "WeakValueDictionary"})

#: functools decorators/calls that attach process-lifetime memo storage.
_FUNCTOOLS_MEMO = frozenset({"lru_cache", "cache"})


@register
class ModuleLevelMemoCache(Rule):
    """DET-007: module-level mutable memo caches outside ``repro.crypto.cache``.

    The crypto fast path (PR 3) memoizes verification/open results in
    *audited* module-level caches: every stored value is a pure function
    of its key and hits charge the same virtual-time cost as misses, so
    cross-Simulator persistence is provably outcome-invisible, and the
    ``checked_memo`` fixture (``tests/conftest.py``) re-proves it by
    recomputing every hit.  The same storage pattern
    anywhere else is the DET-006 footgun with a dict instead of a
    counter: state leaking across runs in one process, invisible to the
    RngRegistry, with no proof obligation attached.  Flagged shapes:

    * an *empty* mutable mapping bound at module scope
      (``_cache = {}``, ``dict()``, ``OrderedDict()``, ``defaultdict(..)``)
      — populated dict literals are lookup tables and pass;
    * ``functools.lru_cache`` / ``functools.cache`` anywhere in the
      module (they attach process-lifetime memo storage to a function).

    Either move the cache onto the owning instance, or route it through
    :func:`repro.crypto.cache.memo` where the invariants are enforced
    and hit/miss counters are exported.
    """

    id = "DET-007"
    name = "module-level-memo-cache"
    rationale = (
        "Module-level mutable caches persist across Simulator instances; "
        "unless values are pure functions of keys AND costs are charged "
        "identically on hit and miss (the audited repro.crypto.cache "
        "contract), a second same-seed run in one process diverges."
    )
    exempt_paths = (
        "crypto/cache.py",  # the audited fast-path module itself
        "tests/*",
        "test_*.py",
        "conftest.py",
    )

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        # (a) module-scope empty mutable mappings.
        for stmt in module.tree.body:
            targets: Tuple[ast.AST, ...] = ()
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = tuple(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = (stmt.target,), stmt.value
            if value is None or not targets:
                continue
            if self._is_empty_mutable_mapping(module, value):
                names = ", ".join(
                    t.id for t in targets if isinstance(t, ast.Name)
                ) or "<target>"
                yield self.finding(
                    module,
                    stmt,
                    f"module-level mutable cache '{names}' outlives the "
                    "Simulator; hold it on the owning instance or register "
                    "it via repro.crypto.cache.memo (the audited exception)",
                )
        # (b) functools.lru_cache / functools.cache anywhere — as a call
        # (``@lru_cache(maxsize=..)``) or a bare decorator (``@cache``).
        for node in ast.walk(module.tree):
            refs: Tuple[ast.AST, ...] = ()
            if isinstance(node, ast.Call):
                refs = (node.func,)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Bare decorators only: decorator *calls* are ast.Call
                # nodes and already reported by the branch above.
                refs = tuple(
                    dec for dec in node.decorator_list
                    if not isinstance(dec, ast.Call)
                )
            for ref in refs:
                target = self._functools_memo_target(module, ref)
                if target is not None:
                    yield self.finding(
                        module,
                        node,
                        f"functools.{target} attaches process-lifetime memo "
                        "storage; use repro.crypto.cache.memo (bounded, "
                        "counted, cross-checkable) or an instance-held cache",
                    )

    @staticmethod
    def _functools_memo_target(module: ModuleContext, ref: ast.AST) -> Optional[str]:
        """The ``functools`` memo name ``ref`` resolves to, else ``None``."""
        target = _resolve_call_target(module, ref)
        if target is not None and target[0] == "functools" and target[1] in _FUNCTOOLS_MEMO:
            return target[1]
        return None

    @staticmethod
    def _is_empty_mutable_mapping(module: ModuleContext, value: ast.AST) -> bool:
        if isinstance(value, ast.Dict):
            return not value.keys  # ``{}``; populated literals are tables
        if not isinstance(value, ast.Call):
            return False
        name = _terminal_identifier(value.func)
        if name not in _CACHE_CONSTRUCTORS:
            return False
        # ``dict(existing)`` / ``dict(a=1)`` copies are tables, not caches;
        # ``defaultdict(list)`` takes a factory and is still an empty cache.
        if name == "dict" and (value.args or value.keywords):
            return False
        return True


#: heapq mutators that imply a hand-rolled priority queue.  ``merge`` and
#: ``nsmallest``/``nlargest`` are one-shot selection helpers, not queues,
#: and pass.
_HEAPQ_QUEUE_OPS = frozenset(
    {"heappush", "heappop", "heapify", "heapreplace", "heappushpop"}
)

#: bisect insertion helpers — the sorted-list flavour of the same queue.
_BISECT_INSERT_OPS = frozenset({"insort", "insort_left", "insort_right"})


@register
class AdHocEventQueue(Rule):
    """DET-008: hand-rolled priority queues outside ``repro.sim``.

    The event queue in :mod:`repro.sim.engine` orders events by the full
    ``(time, priority, seq)`` key, which is unique, so pop order never
    depends on the heap's shape.  A side queue built from ``heapq`` or
    ``bisect.insort`` elsewhere re-invents that ordering *without* the
    seq tie-breaker: same-key entries surface in heap-shape-dependent
    order, which leaks straight into event scheduling and breaks
    byte-identical traces.
    Schedule through the Simulator instead, or — for genuinely non-event
    ordering with audited unique keys — add the path to the exemption
    list with a comment saying why.
    """

    id = "DET-008"
    name = "ad-hoc-event-queue"
    rationale = (
        "heapq/bisect queues outside repro.sim lack the (time, priority, seq) "
        "tie-breaker; same-key pops come out in heap-shape order and break "
        "byte-identical traces."
    )
    exempt_paths = (
        "sim/*",            # the engine's event queue itself
        "tests/*",
        "test_*.py",
        "conftest.py",
        "benchmarks/*",
    )

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_call_target(module, node.func)
            if target is None:
                continue
            mod_name, attr = target
            if mod_name == "heapq" and attr in _HEAPQ_QUEUE_OPS:
                yield self.finding(
                    module,
                    node,
                    f"heapq.{attr}() builds an ad-hoc priority queue without "
                    "the (time, priority, seq) tie-breaker; schedule through "
                    "the Simulator's event queue (repro.sim.engine) or audit "
                    "& exempt this path",
                )
            elif mod_name == "bisect" and attr in _BISECT_INSERT_OPS:
                yield self.finding(
                    module,
                    node,
                    f"bisect.{attr}() maintains an ad-hoc sorted queue; "
                    "same-key insertion order is shape-dependent — schedule "
                    "through the Simulator's event queue or audit & exempt",
                )


@register
class UnorderedIterationIntoScheduler(Rule):
    """DET-009: project-known unordered iteration inside scheduler-reaching code.

    DET-005 sees a set only when the *same module* types it; an attribute
    assigned ``set()`` in one module and iterated in another, or a helper
    ``def neighbors() -> set`` consumed across a module boundary, slips
    through.  This pass uses the project facts: set-typed attribute names
    and set-returning functions collected over the whole tree, plus the
    call graph's transitive closure over ``schedule``/``call_later``/
    ``emit``.  Iterating such a value anywhere in a function that can
    reach the scheduler or the trace stream makes event/trace order
    hash-seed dependent — exactly the divergence class the Fig. 1 sweeps
    cannot tolerate.  Sites DET-005 already reports (intra-module typed)
    are skipped, so each leak is flagged exactly once.
    """

    id = "DET-009"
    name = "unordered-iteration-into-scheduler"
    rationale = (
        "Iterating a cross-module set inside scheduler-reaching code feeds "
        "hash-seed-dependent order into the event queue or trace stream; "
        "wrap in sorted(...) at the iteration site."
    )
    exempt_paths = ("tests/*", "test_*.py", "conftest.py", "benchmarks/*")

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        facts = project.det_facts
        table = project.symbol_table
        intra = _set_typed_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info = table.function_for_node(node)
            if info is None or info.qualname not in facts.schedulers:
                continue
            for sub in ast.walk(node):
                iters: Tuple[ast.AST, ...] = ()
                how = "for-loop iteration"
                if isinstance(sub, ast.For):
                    iters = (sub.iter,)
                elif isinstance(
                    sub, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    iters = tuple(g.iter for g in sub.generators)
                    how = "comprehension iteration"
                for it in iters:
                    reason = self._unordered_reason(module, table, facts, intra, it)
                    if reason is not None:
                        yield self.finding(
                            module,
                            it,
                            f"{how} over {reason} inside scheduler-reaching "
                            f"'{info.qualname}' leaks hash-seed order into "
                            "event scheduling; wrap in sorted(...)",
                        )

    @staticmethod
    def _unordered_reason(
        module: ModuleContext,
        table,
        facts,
        intra: Set[str],
        it: ast.AST,
    ) -> Optional[str]:
        if isinstance(it, ast.Attribute):
            if it.attr not in facts.set_attrs:
                return None
            # Intra-module typed sites are DET-005's (avoid double report).
            if isinstance(it.value, ast.Name) and f"{it.value.id}.{it.attr}" in intra:
                return None
            return f"project-known set attribute '.{it.attr}'"
        if isinstance(it, ast.Call):
            name = _terminal_identifier(it.func)
            if name in {"sorted", "list", "tuple"}:
                return None
            targets = table.resolve_call(module, it)
            if targets and all(t.qualname in facts.set_returning for t in targets):
                return f"set-returning helper '{name}()'"
        return None


@register
class AddressDependentValue(Rule):
    """DET-010: interpreter heap addresses used as data.

    ``id(obj)`` is a CPython heap address: it differs between runs,
    between processes, and under ASLR — so any value or ordering derived
    from it is irreproducible by construction.  This is precisely the
    ``Trapdoor.ref_bytes()`` fallback bug PR 5 fixed: an object address
    leaked into wire-visible ACK reference bytes, and same-seed runs
    produced different traces.  Flagged shapes: builtin ``id(...)`` used
    as a value, and ``sorted(..., key=id)`` / ``key=hash`` (default
    object ``hash`` is the address shifted).  The analysis package
    itself is exempt: it uses ``id(node)`` only as an in-memory dict
    identity key over one AST, never as persisted or compared data.
    """

    id = "DET-010"
    name = "address-dependent-value"
    rationale = (
        "id() is an interpreter heap address — different every run and "
        "every process; values or orderings derived from it can never be "
        "reproduced from the master seed."
    )
    exempt_paths = (
        "analysis/*",  # id(node) as AST-lifetime dict identity keys only
        "tests/*",
        "test_*.py",
        "conftest.py",
        "benchmarks/*",
    )

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "id"
                and func.id not in module.from_imports
                and len(node.args) == 1
                and not node.keywords
            ):
                yield self.finding(
                    module,
                    node,
                    "builtin id() yields an interpreter heap address that "
                    "differs every run (cf. the Trapdoor.ref_bytes fallback "
                    "bug); derive the value from stable contents instead",
                )
                continue
            name = _terminal_identifier(func)
            if name in {"sorted", "sort", "min", "max"}:
                for keyword in node.keywords:
                    if (
                        keyword.arg == "key"
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id in {"id", "hash"}
                        and keyword.value.id not in module.from_imports
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"{name}(key={keyword.value.id}) orders by "
                            "interpreter addresses / hash-seed values; order "
                            "differs between runs — key on stable contents",
                        )


#: Module-scope constructors of (initially empty) non-mapping mutable
#: containers.  Mappings are DET-007's; ints/counters are DET-006's.
_MUTABLE_CONTAINER_CONSTRUCTORS = frozenset({"list", "set", "bytearray", "deque"})


@register
class ModuleLevelMutableState(Rule):
    """DET-011: module-level mutable containers vs. the ``--jobs`` pool.

    Sweeps fan their points over a process pool
    (:mod:`repro.experiments.parallel`, :mod:`repro.campaign.executor`),
    and one pool worker runs several points in turn.  A module-level
    list/set outlives the point that filled it: the next point in that
    worker starts with its leftovers, so a point's result depends on
    which points happened to run before it in the same process — and
    ``--jobs 1`` and ``--jobs 4`` disagree.  The container-shaped
    sibling of DET-006/007.  Flagged: *empty* mutable containers bound
    at module scope (``_pending = []``, ``_seen = set()``, ``deque()``,
    ``bytearray()``).  Populated literals pass — they are constant
    tables.  Hold working state on a Simulator-owned object instead,
    which every point builds afresh.
    """

    id = "DET-011"
    name = "module-level-mutable-state"
    rationale = (
        "Module-level mutable containers outlive the sweep point that "
        "filled them and leak into the next point a pool worker runs; "
        "working state must live on Simulator-owned objects built per point."
    )
    exempt_paths = ("tests/*", "test_*.py", "conftest.py", "benchmarks/*")

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        for stmt in module.tree.body:
            targets: Tuple[ast.AST, ...] = ()
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = tuple(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = (stmt.target,), stmt.value
            if value is None or not targets:
                continue
            if not self._is_empty_mutable_container(value):
                continue
            names = ", ".join(
                t.id for t in targets if isinstance(t, ast.Name)
            ) or "<target>"
            yield self.finding(
                module,
                stmt,
                f"module-level mutable container '{names}' leaks state "
                "between the points one pool worker runs; hold working "
                "state on a Simulator-owned object",
            )

    @staticmethod
    def _is_empty_mutable_container(value: ast.AST) -> bool:
        if isinstance(value, ast.List):
            return not value.elts  # ``[]``; populated literals are tables
        if not isinstance(value, ast.Call):
            return False
        name = _terminal_identifier(value.func)
        if name not in _MUTABLE_CONTAINER_CONSTRUCTORS:
            return False
        # ``list(existing)`` / ``set(known)`` copies are tables; bare
        # constructors (``deque()``, ``deque(maxlen=8)``) are working state.
        return not value.args


#: ``(module, name)`` call targets that enumerate a directory in
#: filesystem order.
_FS_ENUM_CALLS = frozenset(
    {("os", "listdir"), ("os", "scandir"), ("glob", "glob"), ("glob", "iglob")}
)

#: ``pathlib.Path`` enumeration methods (matched by attribute name — a
#: receiver type is not needed; nothing else in the tree shares them).
_PATH_ENUM_ATTRS = frozenset({"glob", "rglob", "iterdir"})


@register
class UnsortedFilesystemEnumeration(Rule):
    """DET-012: directory listings consumed in filesystem order.

    ``os.listdir`` and friends return entries in on-disk order — ext4,
    tmpfs and APFS all disagree, so scenario loaders, the campaign store
    and the analysis engine itself would process files in machine-dependent
    order.  Every enumeration must pass through ``sorted(...)`` before
    its order can matter (the engine's own ``collect_files`` is the
    pattern).  An enumeration already wrapped in a ``sorted(...)`` call
    within a couple of AST levels passes.
    """

    id = "DET-012"
    name = "unsorted-filesystem-enumeration"
    rationale = (
        "Directory enumeration order is filesystem-dependent; any derived "
        "processing order differs across machines unless sorted(...)."
    )
    exempt_paths = ("tests/*", "test_*.py", "conftest.py", "benchmarks/*")

    #: How many parent links to climb looking for a ``sorted(...)`` wrapper
    #: (covers ``sorted(x.rglob(p))`` and ``sorted(f(e) for e in x.iterdir())``).
    _SORT_SEARCH_LEVELS = 3

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label: Optional[str] = None
            target = _resolve_call_target(module, node.func)
            if target in _FS_ENUM_CALLS:
                label = f"{target[0]}.{target[1]}()"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _PATH_ENUM_ATTRS
            ):
                label = f"Path.{node.func.attr}()"
            if label is None or self._sorted_nearby(module, node):
                continue
            yield self.finding(
                module,
                node,
                f"{label} yields entries in filesystem order, which differs "
                "across machines; wrap the enumeration in sorted(...)",
            )

    def _sorted_nearby(self, module: ModuleContext, node: ast.AST) -> bool:
        current: ast.AST = node
        for _ in range(self._SORT_SEARCH_LEVELS):
            parent = module.parent_of(current)
            if parent is None:
                return False
            if isinstance(parent, ast.Call) and (
                _terminal_identifier(parent.func) == "sorted"
            ):
                return True
            current = parent
        return False


def _dotted_call_target(module: ModuleContext, func: ast.AST) -> Optional[str]:
    """Resolve an arbitrarily dotted call to its full import path.

    ``np.random.default_rng`` under ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; ``default_rng`` under ``from
    numpy.random import default_rng`` resolves the same.  ``None`` when
    the root is not a statically known import.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = module.import_aliases.get(node.id)
    if root is None:
        origin = module.from_imports.get(node.id)
        if origin is None:
            return None
        root = f"{origin[0]}.{origin[1]}"
    parts.append(root)
    return ".".join(reversed(parts))


#: ``numpy.random`` module-level functions that draw from (or reseed) the
#: process-global legacy stream.
_NUMPY_GLOBAL_DRAWS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "bytes", "shuffle", "permutation", "uniform",
        "normal", "standard_normal", "exponential", "poisson", "binomial",
        "beta", "gamma", "seed", "set_state", "get_state",
    }
)

#: Sort kinds numpy documents as stable (mergesort is an alias of stable).
_STABLE_SORT_KINDS = frozenset({"stable", "mergesort"})


@register
class NumpyDeterminismEscape(Rule):
    """DET-013: numpy escapes from seed-reproducibility in the hot core.

    The vectorized fast paths (:mod:`repro.geo.vecops`,
    :mod:`repro.geo.spatial_array`) put numpy on the trace-critical
    path, which imports numpy's own determinism footguns:

    * **global-stream draws** — ``np.random.rand()`` et al. are the
      numpy flavour of DET-001: invisible to
      :class:`~repro.sim.rng.RngRegistry`, perturbed by any other
      caller in the process;
    * **unseeded generators** — ``np.random.default_rng()`` /
      ``np.random.RandomState()`` with no seed pull OS entropy
      (DET-002's numpy flavour); a seeded construction passes;
    * **unstable sorts** — ``np.sort`` / ``np.argsort`` default to
      introsort: the relative order of *equal* keys depends on input
      layout, so any downstream use of tied positions (candidate
      ordering, index gathers) silently varies — pass
      ``kind="stable"``;
    * ``np.unique(..., return_index=True)`` — first-occurrence indices
      among equal keys inherit that unstable tie order (plain
      ``np.unique`` only returns the sorted uniques and passes).
    """

    id = "DET-013"
    name = "numpy-determinism-escape"
    rationale = (
        "numpy's global random stream, unseeded generators, and unstable "
        "default sorts make array-path results depend on process history "
        "and input layout instead of the master seed."
    )
    exempt_paths = ("tests/*", "test_*.py", "conftest.py")

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _dotted_call_target(module, node.func)
            if target is None or not target.startswith("numpy."):
                continue
            tail = target[len("numpy."):]
            if tail.startswith("random."):
                attr = tail[len("random."):]
                if attr in _NUMPY_GLOBAL_DRAWS:
                    yield self.finding(
                        module,
                        node,
                        f"numpy.random.{attr}() uses the process-global "
                        "numpy stream; derive a seeded Generator from an "
                        "RngRegistry stream instead",
                    )
                elif attr in {"default_rng", "RandomState"} and not (
                    node.args or node.keywords
                ):
                    yield self.finding(
                        module,
                        node,
                        f"unseeded numpy.random.{attr}() draws OS entropy; "
                        "seed it from an RngRegistry stream",
                    )
            elif tail in {"sort", "argsort"}:
                if not self._has_stable_kind(node):
                    yield self.finding(
                        module,
                        node,
                        f"numpy.{tail}() defaults to an unstable sort — "
                        "equal-key order depends on input layout; pass "
                        'kind="stable"',
                    )
            elif tail == "unique" and self._passes_true(node, "return_index"):
                yield self.finding(
                    module,
                    node,
                    "numpy.unique(return_index=True) reports first-"
                    "occurrence indices through an unstable sort; equal-key "
                    "winners depend on input layout — compute indices with a "
                    'stable argsort (kind="stable") instead',
                )

    @staticmethod
    def _has_stable_kind(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "kind" and isinstance(keyword.value, ast.Constant):
                return keyword.value.value in _STABLE_SORT_KINDS
        return False

    @staticmethod
    def _passes_true(node: ast.Call, arg: str) -> bool:
        for keyword in node.keywords:
            if keyword.arg == arg and isinstance(keyword.value, ast.Constant):
                return keyword.value.value is True
        return False


#: Names whose dicts look like per-process worker plumbing.
_WORKER_DICT_HINT = re.compile(
    r"shard|worker|queue|pending|inbox|mailbox|conn", re.IGNORECASE
)

#: Terminal call names that feed the event scheduler (or an ordered
#: merge of per-worker streams) from a loop body.
_SCHEDULER_SINKS = frozenset(
    {"schedule", "schedule_at", "call_later", "emit", "heappush", "heapreplace", "merge"}
)

#: ``time`` module functions whose values are per-process wall readings.
_WALL_TIMERS = frozenset(
    {
        "perf_counter", "monotonic", "process_time", "thread_time",
        "perf_counter_ns", "monotonic_ns", "process_time_ns", "thread_time_ns",
        "time", "time_ns",
    }
)

#: Per-process identity calls — different in every pool worker.
_PROCESS_IDENTITY = {
    ("os", "getpid"): "os.getpid()",
    ("os", "getppid"): "os.getppid()",
    ("multiprocessing", "current_process"): "multiprocessing.current_process()",
    ("threading", "get_ident"): "threading.get_ident()",
}

#: Receiver-side attribute calls that mark a value as having crossed a
#: pickle boundary (worker pipes / queues).
_PICKLE_RECV_ATTRS = frozenset({"recv", "recv_bytes", "get", "get_nowait"})

#: Object-name shapes we trust to be pipe/queue endpoints for ``.get``
#: (plain ``.recv`` is distinctive enough on its own).
_ENDPOINT_HINT = re.compile(r"conn|pipe|queue|sock|chan", re.IGNORECASE)


def _symbol_key(target: ast.AST) -> Optional[str]:
    """``name`` for locals, ``self.attr``-style dotted keys for attributes."""
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        return f"{target.value.id}.{target.attr}"
    return None


def _is_dict_annotation(annotation: ast.AST) -> bool:
    base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return _terminal_identifier(base) in {
        "dict", "Dict", "Mapping", "MutableMapping", "OrderedDict",
        "defaultdict", "DefaultDict",
    }


def _is_dict_value(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        return _terminal_identifier(value.func) in {"dict", "defaultdict", "OrderedDict"}
    return False


def _is_set_annotation(annotation: ast.AST) -> bool:
    base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return _terminal_identifier(base) in {
        "set", "Set", "frozenset", "FrozenSet", "MutableSet",
    }


def _function_scopes(tree: ast.Module) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
    """Yield ``(scope, nodes)`` with nested function bodies excluded.

    Each loop/call is attributed to its *nearest* enclosing function (or
    the module itself), so a sink in an outer function never licenses a
    finding inside a nested helper and vice versa.
    """

    def shallow_walk(root: ast.AST) -> List[ast.AST]:
        out: List[ast.AST] = []
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return out

    yield tree, shallow_walk(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, shallow_walk(node)


@register
class MultiprocessingOrderEscape(Rule):
    """DET-014: nondeterminism sneaking in through a process boundary.

    The ``--jobs`` pool (:mod:`repro.experiments.parallel`,
    :mod:`repro.campaign.executor`) runs sweep points in worker
    processes and ships configs and results across pickle pipes, and
    output must be byte-identical for any job count.  Three patterns
    silently break that:

    * **worker/queue dict iteration feeding the scheduler** — a dict
      populated per-process (per-worker queues, worker connection
      maps) preserves *its own* insertion order, which is
      message-arrival order, not simulation order.  A loop over such a
      dict that reaches ``schedule``/``emit``/``heappush``/``merge``
      replays arrival order into the event queue — iterate
      ``sorted(...)`` by a deterministic key instead;
    * **per-process identity / wall timers as state** — ``os.getpid()``
      et al. differ in every worker, and wall timers
      (``time.monotonic``...) differ between any two runs; either one
      assigned onto an object attribute (or passed to a scheduling
      call) makes a point's result depend on where and when it ran.
      Local wallclock measurement (``t0 = time.perf_counter()``) stays
      legal: measuring a run is fine, feeding the measurement back in
      is not;
    * **unpickled-set iteration** — a set rehydrated by ``pickle`` on
      the far side of a worker pipe is re-inserted element-by-element
      into a fresh table under the *receiving* process's hash seed, so
      its iteration order need not match the sender's — sort on
      receipt.
    """

    id = "DET-014"
    name = "multiprocessing-order-escape"
    rationale = (
        "Per-process insertion order, process identity, wall timers, and "
        "rehydrated-set layout all differ between pool workers; any of "
        "them reaching the simulation makes a point's result depend on "
        "the worker that ran it."
    )
    exempt_paths = ("tests/*", "test_*.py", "conftest.py")

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Finding]:
        worker_dicts = self._worker_dict_symbols(module.tree)
        unpickled = self._unpickled_symbols(module)
        set_typed: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AnnAssign) and _is_set_annotation(node.annotation):
                key = _symbol_key(node.target)
                if key is not None:
                    set_typed.add(key)

        for _scope, nodes in _function_scopes(module.tree):
            has_sink = any(
                isinstance(n, ast.Call)
                and _terminal_identifier(n.func) in _SCHEDULER_SINKS
                for n in nodes
            )
            for n in nodes:
                iters: List[ast.AST] = []
                if isinstance(n, ast.For):
                    iters.append(n.iter)
                elif isinstance(n, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    iters.extend(comp.iter for comp in n.generators)
                for it in iters:
                    if has_sink and self._is_worker_dict_iter(it, worker_dicts):
                        yield self.finding(
                            module,
                            it,
                            f"iteration over dict '{self._iter_label(it)}' feeds "
                            "the scheduler in per-process insertion (message-"
                            "arrival) order; iterate sorted(...) by a "
                            "deterministic key",
                        )
                    if self._is_unpickled_set_iter(it, module, unpickled, set_typed):
                        yield self.finding(
                            module,
                            it,
                            "iterating a set that crossed a pickle boundary: "
                            "the receiving process rehydrates it under its own "
                            "hash seed, so order need not match the sender's — "
                            "sort on receipt",
                        )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = _resolve_call_target(module, node.func)
                label = _PROCESS_IDENTITY.get(target) if target else None
                if label is not None:
                    yield self.finding(
                        module,
                        node,
                        f"{label} is per-process identity — it differs in "
                        "every pool worker; derive identity from the point's "
                        "config instead",
                    )
            elif isinstance(node, ast.Assign) and self._is_wall_timer(module, node.value):
                if any(isinstance(t, ast.Attribute) for t in node.targets):
                    yield self.finding(
                        module,
                        node,
                        "wall-timer reading assigned onto object state: the "
                        "value differs per process/run and leaks into the "
                        "simulation; keep timers in locals and report them as "
                        "measurements only",
                    )

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _terminal_identifier(node.func) not in _SCHEDULER_SINKS:
                continue
            for arg in node.args:
                if self._is_wall_timer(module, arg):
                    yield self.finding(
                        module,
                        node,
                        "wall-timer reading passed to a scheduling call; "
                        "event times must come from sim.now, never the host "
                        "clock",
                    )

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _worker_dict_symbols(tree: ast.Module) -> Set[str]:
        symbols: Set[str] = set()
        for node in ast.walk(tree):
            targets: Tuple[ast.AST, ...] = ()
            if isinstance(node, ast.AnnAssign) and _is_dict_annotation(node.annotation):
                targets = (node.target,)
            elif isinstance(node, ast.Assign) and _is_dict_value(node.value):
                targets = tuple(node.targets)
            for target in targets:
                key = _symbol_key(target)
                if key is not None and _WORKER_DICT_HINT.search(key):
                    symbols.add(key)
        return symbols

    @staticmethod
    def _iter_label(it: ast.AST) -> str:
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
            it = it.func.value
        return _symbol_key(it) or "<dict>"

    @staticmethod
    def _is_worker_dict_iter(it: ast.AST, symbols: Set[str]) -> bool:
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
            if it.func.attr in {"values", "items", "keys"}:
                it = it.func.value
            else:
                return False
        key = _symbol_key(it)
        return key is not None and key in symbols

    def _unpickled_symbols(self, module: ModuleContext) -> Set[str]:
        symbols: Set[str] = set()
        for node in ast.walk(module.tree):
            value: Optional[ast.AST] = None
            targets: Tuple[ast.AST, ...] = ()
            if isinstance(node, ast.Assign):
                targets, value = tuple(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = (node.target,), node.value
            if value is None or not self._is_pickle_boundary(module, value):
                continue
            for target in targets:
                key = _symbol_key(target)
                if key is not None:
                    symbols.add(key)
        return symbols

    @staticmethod
    def _is_pickle_boundary(module: ModuleContext, value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        target = _resolve_call_target(module, value.func)
        if target == ("pickle", "loads"):
            return True
        if isinstance(value.func, ast.Attribute):
            attr = value.func.attr
            if attr in {"recv", "recv_bytes"}:
                return True
            if attr in {"get", "get_nowait"}:
                base = _symbol_key(value.func.value)
                return bool(base and _ENDPOINT_HINT.search(base))
        return False

    def _is_unpickled_set_iter(
        self,
        it: ast.AST,
        module: ModuleContext,
        unpickled: Set[str],
        set_typed: Set[str],
    ) -> bool:
        # ``for x in set(conn.recv()):`` — rebuilt set, rehydrated members.
        if (
            isinstance(it, ast.Call)
            and _terminal_identifier(it.func) in {"set", "frozenset"}
            and it.args
            and self._is_pickle_boundary(module, it.args[0])
        ):
            return True
        key = _symbol_key(it)
        return key is not None and key in unpickled and key in set_typed

    @staticmethod
    def _is_wall_timer(module: ModuleContext, value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        target = _resolve_call_target(module, value.func)
        return target is not None and target[0] == "time" and target[1] in _WALL_TIMERS
