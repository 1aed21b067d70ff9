"""Interprocedural tests: the call graph and DET-009..012.

The fixture packages mirror the cross-module shapes a per-module walk
cannot see: a set built in one module and iterated in another inside
code that reaches the scheduler, directly, through a helper, or
through a mutual-recursion cycle.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CallGraph, SymbolTable, module_name_of
from repro.analysis.core import ModuleContext
from repro.analysis.engine import analyze_paths

from tests.analysis_helpers import lint_source, rule_ids, write_fixture


def lint_package(tmp_path, files, select=None):
    for rel, source in sorted(files.items()):
        write_fixture(tmp_path, rel, source)
    return analyze_paths([str(tmp_path / "src")], select=select)


def _module(source: str, path: str = "src/repro/x.py") -> ModuleContext:
    return ModuleContext(path, source, ast.parse(source))


# ------------------------------------------------------------------ DET-009
SCHED_FILES = {
    "src/repro/fixpkg/__init__.py": "",
    "src/repro/fixpkg/state.py": """\
        class Roster:
            def __init__(self):
                self.members = set()


        def fresh_members(roster) -> set:
            return roster.members
        """,
    "src/repro/fixpkg/user.py": """\
        from repro.fixpkg.state import Roster, fresh_members


        def notify(roster, sim):
            for member in roster.members:
                sim.schedule(0.1, member)


        def kick(roster, sim):
            for member in fresh_members(roster):
                notify(roster, sim)
        """,
}


def test_det009_cross_module_set_iteration_into_scheduler(tmp_path):
    result = lint_package(tmp_path, SCHED_FILES, select=["DET-009"])
    assert rule_ids(result) == ["DET-009", "DET-009"]
    assert all(f.path.endswith("user.py") for f in result.findings)
    # ``kick`` only *transitively* reaches the scheduler (through notify).
    assert any("kick" in f.message for f in result.findings)


def test_recursive_call_cycle_terminates_and_propagates(tmp_path):
    """Scheduler reachability is a fixpoint over the call graph: a
    mutual-recursion cycle terminates it, and a function that reaches
    the scheduler only through the cycle is still flagged."""
    files = {
        "src/repro/fixpkg/__init__.py": "",
        "src/repro/fixpkg/state.py": SCHED_FILES["src/repro/fixpkg/state.py"],
        "src/repro/fixpkg/cycle.py": """\
            def ping(sim, depth):
                if depth == 0:
                    sim.schedule(0.1, None)
                    return
                pong(sim, depth - 1)


            def pong(sim, depth):
                ping(sim, depth)
            """,
        "src/repro/fixpkg/user.py": """\
            from repro.fixpkg.cycle import pong


            def kick(roster, sim):
                for member in roster.members:
                    pong(sim, 3)
            """,
    }
    result = lint_package(tmp_path, files, select=["DET-009"])
    assert rule_ids(result) == ["DET-009"]
    assert "kick" in result.findings[0].message


def test_det009_sorted_wrapper_is_clean(tmp_path):
    files = dict(SCHED_FILES)
    files["src/repro/fixpkg/user.py"] = """\
        from repro.fixpkg.state import Roster, fresh_members


        def notify(roster, sim):
            for member in sorted(roster.members):
                sim.schedule(0.1, member)


        def kick(roster, sim):
            for member in sorted(fresh_members(roster)):
                notify(roster, sim)
        """
    assert lint_package(tmp_path, files, select=["DET-009"]).findings == []


def test_det009_leaves_intra_module_sets_to_det005(tmp_path):
    source = """\
        class Beacon:
            def __init__(self, sim):
                self.sim = sim
                self.pending = set()

            def flush(self):
                for item in self.pending:
                    self.sim.schedule(0.1, item)
        """
    result = lint_source(tmp_path, source, select=["DET"])
    assert rule_ids(result) == ["DET-005"]


# ------------------------------------------------------------------ DET-010
def test_det010_flags_id_as_data_and_address_sort_keys(tmp_path):
    source = """\
        def ref_of(obj):
            return id(obj).to_bytes(8, "little")


        def order(items):
            return sorted(items, key=id)
        """
    result = lint_source(tmp_path, source, select=["DET-010"])
    assert rule_ids(result) == ["DET-010", "DET-010"]


def test_det010_exempts_analysis_package_and_shadowed_id(tmp_path):
    clean = lint_source(
        tmp_path,
        "def f(node):\n    return id(node)\n",
        select=["DET-010"],
        rel="src/repro/analysis/fixture_mod.py",
    )
    assert clean.findings == []
    shadowed = lint_source(
        tmp_path,
        "from repro.fix import id\n\n\ndef f(node):\n    return id(node)\n",
        select=["DET-010"],
    )
    assert shadowed.findings == []


# ------------------------------------------------------------------ DET-011
def test_det011_flags_empty_module_level_containers_only(tmp_path):
    source = """\
        import collections

        _PENDING = []
        _SEEN = set()
        _BUF = bytearray()
        _QUEUE = collections.deque()
        TABLE = [1, 2, 3]
        COPY = list(TABLE)


        def local_state():
            scratch = []
            return scratch
        """
    result = lint_source(tmp_path, source, select=["DET-011"])
    assert rule_ids(result) == ["DET-011"] * 4
    assert all(f.line <= 6 for f in result.findings)


# ------------------------------------------------------------------ DET-012
def test_det012_flags_unsorted_enumeration_and_accepts_sorted(tmp_path):
    source = """\
        import os
        from pathlib import Path


        def bad(base: Path):
            names = os.listdir(base)
            files = [p for p in base.rglob("*.py")]
            return names, files


        def good(base: Path):
            names = sorted(os.listdir(base))
            files = sorted(base.rglob("*.py"))
            nested = sorted(str(p) for p in base.iterdir())
            return names, files, nested
        """
    result = lint_source(tmp_path, source, select=["DET-012"])
    assert rule_ids(result) == ["DET-012", "DET-012"]
    assert all(f.line in (6, 7) for f in result.findings)


# -------------------------------------------------------- callgraph machinery
def test_module_name_of_anchors_at_src():
    assert module_name_of("src/repro/routing/gpsr.py") == "repro.routing.gpsr"
    assert module_name_of("/tmp/x/src/repro/core/__init__.py") == "repro.core"
    assert module_name_of("scripts/tool.py") == "tool"


def test_symbol_table_resolves_from_imports_and_methods():
    a = _module(
        "def helper(x):\n    return x\n\n\nclass Base:\n    def ping(self):\n        return 1\n",
        path="src/repro/a.py",
    )
    b = _module(
        "from repro.a import helper, Base\n\n\nclass Child(Base):\n    pass\n",
        path="src/repro/b.py",
    )
    table = SymbolTable([a, b])
    assert table.resolve_local(b, "helper") == "repro.a.helper"
    method = table.class_method("repro.b.Child", "ping")
    assert method is not None and method.qualname == "repro.a.Base.ping"


def test_callgraph_reaching_is_transitive():
    module = _module(
        "def leaf(sim):\n    sim.schedule(1)\n\n\n"
        "def mid(sim):\n    leaf(sim)\n\n\n"
        "def top(sim):\n    mid(sim)\n\n\n"
        "def unrelated():\n    return 0\n",
        path="src/repro/g.py",
    )
    graph = CallGraph(SymbolTable([module]))
    direct = graph.functions_calling(frozenset({"schedule"}))
    reaching = graph.reaching(direct)
    assert {"repro.g.leaf", "repro.g.mid", "repro.g.top"} <= reaching
    assert "repro.g.unrelated" not in reaching
