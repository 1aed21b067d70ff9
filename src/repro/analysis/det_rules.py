"""DET — the determinism rules a run-time check cannot stand in for.

The determinism contract (one config and seed, one byte-identical
trace) is checked at run time: ``tests/test_determinism.py`` compares
full-record trace digests across hash seeds, fresh interpreters, runs
back to back in one process and campaign pool sizes.  Any escape from
:class:`repro.sim.rng.RngRegistry` that makes two runs on one machine
differ fails there.  These rules flag the bugs that check cannot see,
because every run on one machine makes them the same way:

==========  ===========================================================
DET-003     wall-clock / OS-entropy sources (``time.time``,
            ``datetime.now``, ``uuid4``, ``os.urandom``, ``secrets``):
            a wall-clock read compared against a timeout gives the same
            answer in every run that finishes faster than the timeout
DET-004     float ``==``/``!=`` against sim-time expressions: float
            addition is deterministic on one machine, so a guard that
            breaks when a refactor reorders additions breaks identically
            in every run
DET-012     unsorted filesystem enumeration (``os.listdir``, ``glob``,
            ``Path.glob/rglob/iterdir``): directory order is fixed for
            one directory on one filesystem and differs between machines
DET-013     unstable numpy sorts in the vectorized hot core
            (``np.sort``/``np.argsort`` without ``kind="stable"``,
            ``np.unique(..., return_index=True)``): the tie order is
            fixed by the numpy build and CPU, not by the run
==========  ===========================================================

Every rule looks at one module at a time.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import Finding, ModuleContext, Rule, register

__all__ = [
    "WallClockEntropy",
    "FloatTimeEquality",
    "UnsortedFilesystemEnumeration",
    "NumpyUnstableSort",
]


def _dotted_call_target(module: ModuleContext, func: ast.AST) -> Optional[str]:
    """Resolve a call's function to its full dotted import path.

    ``np.argsort`` under ``import numpy as np`` resolves to
    ``numpy.argsort``; ``argsort`` under ``from numpy import argsort``
    resolves the same, and ``datetime.now`` under ``from datetime import
    datetime`` resolves to ``datetime.datetime.now``.  ``None`` when the
    root is not a statically known import.
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


#: Call targets that read wall-clock time or OS entropy (every
#: ``secrets`` function draws OS entropy too).
_FORBIDDEN_CALLS = {
    "time.time": "time.time() reads the wall clock",
    "time.time_ns": "time.time_ns() reads the wall clock",
    "time.localtime": "time.localtime() reads the wall clock",
    "time.ctime": "time.ctime() reads the wall clock",
    "datetime.datetime.now": "datetime.now() reads the wall clock",
    "datetime.datetime.utcnow": "datetime.utcnow() reads the wall clock",
    "datetime.datetime.today": "datetime.today() reads the wall clock",
    "datetime.date.today": "date.today() reads the wall clock",
    "uuid.uuid1": "uuid1() mixes the wall clock and the MAC address",
    "uuid.uuid4": "uuid4() draws OS entropy",
    "os.urandom": "os.urandom() draws OS entropy",
    "random.SystemRandom": "random.SystemRandom draws OS entropy",
}


@register
class WallClockEntropy(Rule):
    """DET-003: wall-clock time or OS entropy inside simulation code.

    Simulated time is ``sim.now``; freshness, pseudonym lifetimes and
    certificate windows must be driven by it.  The run-time check sees a
    clock value that reaches a trace, but not one compared against a
    timeout: an ANT purge that ages rows by ``time.time()`` expires the
    same rows in every run (all of them, when the rows carry simulated
    stamps), so runs agree with each other while breaking the contract.
    ``time.perf_counter`` is deliberately *not* flagged: measuring how
    long a run took is fine, and feeding the measurement back into the
    simulation shows up at run time.
    """

    id = "DET-003"
    name = "wall-clock-entropy"
    rationale = (
        "Wall-clock reads and OS entropy differ between runs; simulated time "
        "must come from sim.now and randomness from RngRegistry streams."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _dotted_call_target(module, node.func)
            if target is None:
                continue
            reason = _FORBIDDEN_CALLS.get(target)
            if reason is None and target.startswith("secrets."):
                reason = f"{target}() draws OS entropy"
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
    the worst way — only on some platforms.  On one machine the same
    additions round the same way in every run, so the guard matches or
    misses identically and the run-time check cannot see it.  Compare
    with a tolerance or compare integer tick counts.  Test files are
    exempt by default:
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

    def check(self, module: ModuleContext) -> Iterator[Finding]:
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


#: Call targets that enumerate a directory in filesystem order.
_FS_ENUM_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})

#: ``pathlib.Path`` enumeration methods (matched by attribute name — a
#: receiver type is not needed; nothing else in the tree shares them).
_PATH_ENUM_ATTRS = frozenset({"glob", "rglob", "iterdir"})


@register
class UnsortedFilesystemEnumeration(Rule):
    """DET-012: directory listings consumed in filesystem order.

    ``os.listdir`` and friends return entries in on-disk order — ext4,
    tmpfs and APFS all disagree, so scenario loaders, the campaign store
    and the analysis engine itself would process files in machine-dependent
    order.  One directory on one filesystem lists the same way every
    time, so the run-time check cannot see it.  Every enumeration must
    pass through ``sorted(...)`` before its order can matter (the
    engine's own ``collect_files`` is the pattern).  An enumeration
    already wrapped in a ``sorted(...)`` call within a couple of AST
    levels passes.
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

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label: Optional[str] = None
            target = _dotted_call_target(module, node.func)
            if target in _FS_ENUM_CALLS:
                label = f"{target}()"
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


#: Sort kinds numpy documents as stable (mergesort is an alias of stable).
_STABLE_SORT_KINDS = frozenset({"stable", "mergesort"})


@register
class NumpyUnstableSort(Rule):
    """DET-013: unstable numpy sorts in the hot core.

    The vectorized fast paths (:mod:`repro.geo.vecops`,
    :mod:`repro.geo.spatial_array`) put numpy on the trace-critical
    path.  ``np.sort`` / ``np.argsort`` default to introsort: the
    relative order of *equal* keys depends on the input layout and on
    the sort kernel the numpy build picks for the CPU, so any downstream
    use of tied positions (candidate ordering, index gathers) can differ
    between machines while every run on one machine agrees — pass
    ``kind="stable"``.  ``np.unique(..., return_index=True)`` reports
    first-occurrence indices among equal keys through the same unstable
    sort (plain ``np.unique`` only returns the sorted uniques and
    passes).
    """

    id = "DET-013"
    name = "numpy-unstable-sort"
    rationale = (
        "numpy's default sorts order equal keys by input layout and the "
        "build's sort kernel; tied positions differ between machines."
    )
    exempt_paths = ("tests/*", "test_*.py", "conftest.py")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _dotted_call_target(module, node.func)
            if target in {"numpy.sort", "numpy.argsort"}:
                if not self._has_stable_kind(node):
                    yield self.finding(
                        module,
                        node,
                        f"{target}() defaults to an unstable sort — "
                        "equal-key order depends on input layout; pass "
                        'kind="stable"',
                    )
            elif target == "numpy.unique" and self._passes_true(node, "return_index"):
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
