"""Interprocedural dataflow tests: taint across modules, DET-009..012.

The fixture packages mirror the cross-module leak shapes a per-function
walk cannot see: identity laundered through a helper return, stored into
a dataclass field in another module, cleansed by a sanitizer mid-chain,
cycled through mutual recursion, and injected through call-site
arguments.  Each must be caught where the identity reaches the packet.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.callgraph import CallGraph, SymbolTable, module_name_of
from repro.analysis.core import ModuleContext, ProjectContext
from repro.analysis.dataflow import SEED
from repro.analysis.engine import analyze_paths
from repro.analysis.anon_rules import IDENTITY_SPEC

from tests.analysis_helpers import PACKET_PREAMBLE, lint_source, rule_ids, write_fixture


def pkt(body: str) -> str:
    """Prepend the shared Probe packet class to a dedented module body."""
    return PACKET_PREAMBLE + textwrap.dedent(body)


def lint_package(tmp_path, files, select=None):
    for rel, source in sorted(files.items()):
        write_fixture(tmp_path, rel, source)
    return analyze_paths([str(tmp_path / "src")], select=select)


def _module(source: str, path: str = "src/repro/x.py") -> ModuleContext:
    return ModuleContext(path, source, ast.parse(source))


# ------------------------------------------------------- helper-return leak
HELPER_LEAK = {
    "src/repro/fixpkg/__init__.py": "",
    "src/repro/fixpkg/helpers.py": """\
        def node_tag(node):
            return node.identity
        """,
    "src/repro/fixpkg/sender.py": pkt("""\
        from repro.fixpkg.helpers import node_tag


        def announce(node, mac):
            probe = Probe(sender=node_tag(node))
            mac.send(probe)
        """),
}


def test_leak_through_helper_return_caught_interprocedurally(tmp_path):
    result = lint_package(tmp_path, HELPER_LEAK, select=["ANON-001"])
    assert rule_ids(result) == ["ANON-001"]
    (finding,) = result.findings
    assert finding.path.endswith("sender.py")


# ----------------------------------------------------- dataclass-field leak
def test_leak_through_dataclass_field_across_modules(tmp_path):
    files = {
        "src/repro/fixpkg/__init__.py": "",
        "src/repro/fixpkg/headers.py": """\
            class RouteHeader:
                def __init__(self, origin: str = ""):
                    self.origin = origin


            def stamp(header: RouteHeader, node) -> None:
                header.origin = node.identity
            """,
        "src/repro/fixpkg/emit.py": pkt("""\
            from repro.fixpkg.headers import RouteHeader, stamp


            def emit(node, mac):
                header = RouteHeader()
                stamp(header, node)
                probe = Probe(sender=header.origin)
                mac.send(probe)
            """),
    }
    result = lint_package(tmp_path, files, select=["ANON-001"])
    assert rule_ids(result) == ["ANON-001"]
    (finding,) = result.findings
    assert finding.path.endswith("emit.py")


def test_leak_through_constructor_keyword_field(tmp_path):
    """``Header(origin=node.identity)`` in one module taints the field for
    reads in every other module."""
    files = {
        "src/repro/fixpkg/__init__.py": "",
        "src/repro/fixpkg/headers.py": """\
            class RouteHeader:
                def __init__(self, origin: str = ""):
                    self.origin = origin


            def make_header(node) -> RouteHeader:
                return RouteHeader(origin=node.identity)
            """,
        "src/repro/fixpkg/emit.py": pkt("""\
            from repro.fixpkg.headers import make_header


            def emit(node, mac):
                header = make_header(node)
                mac.send(Probe(sender=header.origin))
            """),
    }
    result = lint_package(tmp_path, files, select=["ANON-001"])
    assert rule_ids(result) == ["ANON-001"]


# -------------------------------------------------------- sanitizer mid-chain
def test_sanitizer_mid_chain_cleanses_across_modules(tmp_path):
    files = dict(HELPER_LEAK)
    files["src/repro/fixpkg/helpers.py"] = """\
        from repro.crypto.hashing import sha256


        def node_tag(node):
            return sha256(node.identity.encode("utf-8"))
        """
    result = lint_package(tmp_path, files, select=["ANON-001"])
    assert result.findings == []


# --------------------------------------------------------- recursion cycle
def test_recursive_call_cycle_terminates_and_propagates(tmp_path):
    files = {
        "src/repro/fixpkg/__init__.py": "",
        "src/repro/fixpkg/cycle.py": """\
            def ping(node, depth):
                if depth == 0:
                    return node.identity
                return pong(node, depth - 1)


            def pong(node, depth):
                return ping(node, depth)
            """,
        "src/repro/fixpkg/sender.py": pkt("""\
            from repro.fixpkg.cycle import ping


            def announce(node, mac):
                mac.send(Probe(sender=ping(node, 3)))
            """),
    }
    result = lint_package(tmp_path, files, select=["ANON-001"])
    assert rule_ids(result) == ["ANON-001"]


# ------------------------------------------------------ call-site injection
def test_taint_and_packet_injected_into_callee_params(tmp_path):
    """Seed and sink live in *different* modules: the caller passes both
    the packet and the identity into a generic helper, and the violation
    is flagged inside the helper."""
    files = {
        "src/repro/fixpkg/__init__.py": "",
        "src/repro/fixpkg/plumbing.py": """\
            def fill(probe, tag):
                probe.sender = tag
            """,
        "src/repro/fixpkg/caller.py": pkt("""\
            from repro.fixpkg.plumbing import fill


            def send(node, mac):
                probe = Probe()
                fill(probe, node.identity)
                mac.send(probe)
            """),
    }
    result = lint_package(tmp_path, files, select=["ANON-001"])
    assert rule_ids(result) == ["ANON-001"]
    (finding,) = result.findings
    assert finding.path.endswith("plumbing.py")


def test_constructed_packet_does_not_retaint_plumbing(tmp_path):
    """A deliberately-leaky packet construction (noqa'd baseline style)
    must not cascade taint through generic forwarding helpers: the
    packet object is a sink, and clean fields read off it stay clean."""
    files = {
        "src/repro/fixpkg/__init__.py": "",
        "src/repro/fixpkg/route.py": pkt("""\
            def build(node):
                return Probe(sender=node.identity)  # repro: noqa[ANON-001] baseline


            def forward(mac, probe):
                clone = Probe(payload=probe.payload)
                mac.send(clone)


            def main(node, mac):
                forward(mac, build(node))
            """),
    }
    result = lint_package(tmp_path, files, select=["ANON-001"])
    assert result.findings == []
    assert [f.rule_id for f in result.suppressed] == ["ANON-001"]


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


def test_summaries_param_labels_and_seed(tmp_path):
    module = _module(
        "def wrap(x):\n    return [x]\n\n\ndef leak(node):\n    return node.identity\n",
        path="src/repro/s.py",
    )
    project = ProjectContext([module])
    summaries = project.summaries_for(IDENTITY_SPEC)
    assert summaries.return_labels["repro.s.wrap"] == frozenset({"param:x"})
    assert SEED in summaries.return_labels["repro.s.leak"]
