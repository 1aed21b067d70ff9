"""Static determinism checks: four AST rules over ``src`` and ``tests``.

The determinism contract (one config and seed, one byte-identical
trace) is checked at run time by ``tests/test_determinism.py``, which
compares trace digests across hash seeds, fresh interpreters and runs
back to back.  These rules flag the bugs that check cannot see, because
every run on one machine makes them the same way:

========  =============================================================
DET-003   wall-clock or OS-entropy reads (``time.time``,
          ``datetime.now``, ``uuid4``, ``os.urandom``, ``secrets``): a
          wall-clock read compared against a timeout gives the same
          answer in every run that finishes faster than the timeout.
          ``time.perf_counter`` passes: timing a run is fine.
DET-004   float ``==``/``!=`` against a sim-time name (``now``,
          ``timestamp``, ``*_at``, ...): a guard that breaks when a
          refactor reorders additions breaks identically in every run.
          An ``int()``/``round()`` or int-literal other side passes.
DET-012   filesystem enumeration (``os.listdir``, ``glob``,
          ``Path.glob/rglob/iterdir``) with no ``sorted(...)`` within
          three AST levels above it: directory order differs between
          machines.
DET-013   ``np.sort``/``np.argsort`` without ``kind="stable"`` (or
          ``"mergesort"``), and ``np.unique(return_index=True)``: numpy
          orders equal keys by the build's sort kernel.
========  =============================================================

DET-004, DET-012 and DET-013 skip ``tests/*``, ``test_*.py`` and
``conftest.py``.  A deliberate violation carries ``# repro:
noqa[RULE]`` on the line the finding is reported at.
"""

from __future__ import annotations

import ast
import re
import textwrap
import time
from pathlib import Path, PurePosixPath
from typing import Dict, List, Optional, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

Finding = Tuple[int, int, str]  # (line, column from 1, rule)

TEST_FILES = ("tests/*", "test_*.py", "conftest.py")
WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.ctime",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today", "uuid.uuid1", "uuid.uuid4", "os.urandom",
    "random.SystemRandom",
})
TIME_NAMES = frozenset(
    {"now", "time", "timestamp", "ts", "deadline", "expiry", "not_before", "not_after"}
)
TIME_SUFFIXES = ("_time", "_at", "_deadline", "_timestamp", "_expiry")
FS_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
PATH_METHODS = frozenset({"glob", "rglob", "iterdir"})
STABLE_KINDS = frozenset({"stable", "mergesort"})
NOQA = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z]+-\d+(?:\s*,\s*[A-Za-z]+-\d+)*)\]")


def _name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _dotted(func: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """``np.argsort`` under ``import numpy as np`` -> ``numpy.argsort``."""
    parts: List[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in imports:
        return None
    return ".".join([imports[func.id], *reversed(parts)])


def _keyword(call: ast.Call, arg: str) -> object:
    for keyword in call.keywords:
        if keyword.arg == arg and isinstance(keyword.value, ast.Constant):
            return keyword.value.value
    return None


def _is_time(node: ast.AST) -> bool:
    name = (_name(node) or "").lower()
    return name in TIME_NAMES or name.endswith(TIME_SUFFIXES)


def _is_integer(node: ast.AST) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"int", "round"}
    return isinstance(node, ast.Constant) and type(node.value) is int


def lint(path: str, source: str) -> List[Finding]:
    """The sorted findings of one module, ``path`` relative to the repo."""
    tree = ast.parse(source, filename=path)
    exempt = any(PurePosixPath(path).match(pattern) for pattern in TEST_FILES)
    modules: Dict[str, str] = {}
    names: Dict[str, str] = {}
    calls: List[ast.Call] = []
    found: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            calls.append(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                modules[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Compare) and not exempt:
            sides = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, sides, sides[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (
                    (_is_time(left) and not _is_integer(right))
                    or (_is_time(right) and not _is_integer(left))
                ):
                    found.append((node.lineno, node.col_offset + 1, "DET-004"))
    imports = {**names, **modules}
    near_sorted = set()
    for call in calls:
        if _name(call.func) == "sorted":
            level: List[ast.AST] = [call]
            for _ in range(3):
                level = [child for n in level for child in ast.iter_child_nodes(n)]
                near_sorted.update(map(id, level))
    for call in calls:
        at = (call.lineno, call.col_offset + 1)
        target = _dotted(call.func, imports) or ""
        if target in WALL_CLOCK or target.startswith("secrets."):
            found.append((*at, "DET-003"))
        if exempt:
            continue
        if (target in FS_CALLS or (
            isinstance(call.func, ast.Attribute) and call.func.attr in PATH_METHODS
        )) and id(call) not in near_sorted:
            found.append((*at, "DET-012"))
        if (
            target in ("numpy.sort", "numpy.argsort")
            and _keyword(call, "kind") not in STABLE_KINDS
        ) or (target == "numpy.unique" and _keyword(call, "return_index") is True):
            found.append((*at, "DET-013"))
    lines = source.splitlines()
    return sorted(f for f in found if f[2] not in _suppressed(lines[f[0] - 1]))


def _suppressed(line: str) -> List[str]:
    match = NOQA.search(line)
    return [] if match is None else [r.strip().upper() for r in match.group(1).split(",")]


#: One pass over ``src`` and ``tests`` takes about 0.6 s on a shared
#: 2-vCPU VM under Python 3.11.  The floor is ten times a measured
#: 0.627 s: slack for CI-runner variance, while a rule that re-walks the
#: tree per node still fails it.
FLOOR_S = 0.627 * 10


@pytest.fixture(scope="module")
def tree_pass():
    """One timed pass over ``src`` and ``tests``: each top directory's
    findings as ``path:line:column: rule`` lines, and the wall time."""
    started = time.perf_counter()
    report = {
        top: [
            f"{rel}:{line}:{column}: {rule}"
            for rel in sorted(
                path.relative_to(REPO_ROOT).as_posix()
                for path in (REPO_ROOT / top).rglob("*.py")
            )
            for line, column, rule in lint(rel, (REPO_ROOT / rel).read_text(encoding="utf-8"))
        ]
        for top in ("src", "tests")
    }
    return report, time.perf_counter() - started


def test_src_has_no_findings(tree_pass):
    report, _ = tree_pass
    assert report["src"] == [], "\n".join(report["src"])


def test_tests_have_no_findings(tree_pass):
    report, _ = tree_pass
    assert report["tests"] == [], "\n".join(report["tests"])


def test_one_pass_within_floor(tree_pass):
    _, elapsed = tree_pass
    assert elapsed <= FLOOR_S, f"one pass took {elapsed:.2f} s, over {FLOOR_S:.1f} s"


CASES = {
    "det003-wall-clock": ("""\
        import time
        def freshness():
            return time.time()
        """, [(3, 12, "DET-003")]),
    "det003-uuid4-and-urandom": ("""\
        import os.path
        import uuid
        def fresh_nonce():
            return uuid.uuid4().bytes + os.urandom(8)
        """, [(4, 12, "DET-003"), (4, 33, "DET-003")]),
    "det003-datetime-now-via-from-import": ("""\
        import datetime
        from datetime import datetime as dt
        stamp = dt.now()
        again = datetime.datetime.now()
        """, [(3, 9, "DET-003"), (4, 9, "DET-003")]),
    "det003-perf-counter-is-allowed": ("""\
        import time
        started = time.perf_counter()
        """, []),
    "planted-wall-clock-in-routing": ("""\
        import time
        def neighbor_is_fresh(entry, timeout):
            return time.time() - entry.timestamp <= timeout
        """, [(3, 12, "DET-003")]),
    "det004-float-time-equality": ("""\
        def stale(entry, now):
            return entry.timestamp == now
        """, [(2, 12, "DET-004")]),
    "det004-tolerance-compare-passes": ("""\
        def stale(entry, now, eps=1e-9):
            return abs(entry.timestamp - now) < eps
        """, []),
    "det004-integer-tick-compare-passes": ("""\
        def on_tick(deadline_tick, tick):
            return int(deadline_tick) == int(tick)
        """, []),
    "det012-unsorted-enumeration-and-sorted": ("""\
        import os
        def bad(base):
            names = os.listdir(base)
            files = [p for p in base.rglob("*.py")]
            return names, files
        def good(base):
            names = sorted(os.listdir(base))
            files = sorted(base.rglob("*.py"))
            nested = sorted(str(p) for p in base.iterdir())
            return names, files, nested
        """, [(3, 13, "DET-012"), (4, 25, "DET-012")]),
    "det013-unstable-argsort": ("""\
        import numpy as np
        order = np.argsort(keys)
        ranked = np.sort(keys)
        """, [(2, 9, "DET-013"), (3, 10, "DET-013")]),
    "det013-stable-sort-passes": ("""\
        import numpy as np
        order = np.argsort(keys, kind="stable")
        ranked = np.sort(keys, kind="mergesort")
        """, []),
    "det013-unique-with-return-index": ("""\
        import numpy as np
        values, index = np.unique(keys, return_index=True)
        """, [(2, 17, "DET-013")]),
    "det013-plain-unique-passes": ("""\
        import numpy as np
        cells, counts = np.unique(packed_cells, return_counts=True)
        """, []),
    "import-alias-resolution": ("""\
        import random as rnd
        import os
        import os.path
        rng = rnd.SystemRandom()
        salt = os.urandom(4)
        """, [(4, 7, "DET-003"), (5, 8, "DET-003")]),
    "from-import-resolution": ("""\
        from random import SystemRandom as R
        rng = R()
        """, [(2, 7, "DET-003")]),
    "noqa-matches-only-named-rules": ("""\
        import time
        a = time.time()  # repro: noqa[DET-003, DET-012]
        b = time.time()  # repro: noqa[DET-012]
        """, [(3, 5, "DET-003")]),
    "noqa-is-line-scoped": ("""\
        import time
        a = 1  # repro: noqa[DET-003]
        b = time.time()
        c = (time.time(),
             1)  # repro: noqa[DET-003]
        """, [(3, 5, "DET-003"), (4, 6, "DET-003")]),
    "noqa-on-def-line-does-not-cover-body": ("""\
        import time
        def stamp():  # repro: noqa[DET-003]
            return time.time()
        """, [(3, 12, "DET-003")]),
    "noqa-drops-suppressed-keeps-the-rest": ("""\
        import time
        a = time.time()  # repro: noqa[DET-003]
        b = time.time()
        """, [(3, 5, "DET-003")]),
}

#: Test modules may compare clocks exactly and sort any way; DET-003
#: still applies to them.
TEST_FILE_CASES = {
    "det004-test-files-are-exempt": ("benchmarks/test_clock.py", "assert sim.now == 5.0\n"),
    "det013-tests-are-exempt": ("tests/helpers.py", "import numpy\nnumpy.argsort([2, 1, 2])\n"),
    "conftest-is-exempt": ("src/repro/conftest.py", "import os\nos.listdir('.')\nnow == 1.5\n"),
}


@pytest.mark.parametrize("source, expected", CASES.values(), ids=CASES.keys())
def test_findings(source, expected):
    assert lint("src/repro/routing/m.py", textwrap.dedent(source)) == expected


@pytest.mark.parametrize("path, source", TEST_FILE_CASES.values(), ids=TEST_FILE_CASES.keys())
def test_test_files_are_exempt(path, source):
    assert lint(path, source) == []
    planted = source + "import time\nstamp = time.time()\n"
    assert lint(path, planted) == [(len(planted.splitlines()), 9, "DET-003")]
