"""Tests for the analysis engine: core model, suppressions, reporters, CLI."""

from __future__ import annotations

import ast
import io
import json

import pytest

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    RuleRegistry,
    registry,
)
from repro.analysis.engine import analyze_paths, collect_files
from repro.analysis.cli import main
from repro.analysis.report import render_json, render_text
from repro.analysis.suppress import collect_suppressions, split_suppressed

from tests.analysis_helpers import lint_source, write_fixture


def _module(source: str, path: str = "src/repro/x.py") -> ModuleContext:
    return ModuleContext(path, source, ast.parse(source))


# ------------------------------------------------------------------- findings
def test_finding_location_and_dict():
    finding = Finding("src/a.py", 3, 7, "DET-001", "boom")
    assert finding.location() == "src/a.py:3:7"
    assert finding.as_dict() == {
        "path": "src/a.py",
        "line": 3,
        "column": 7,
        "rule": "DET-001",
        "message": "boom",
    }


def test_findings_sort_by_path_then_line():
    late = Finding("src/b.py", 1, 1, "DET-001", "m")
    early = Finding("src/a.py", 9, 1, "DET-001", "m")
    assert sorted([late, early]) == [early, late]


# ------------------------------------------------------------- module context
def test_import_alias_resolution():
    module = _module("import random as rnd\nimport os\n")
    assert module.resolves_to_module("rnd", "random")
    assert module.resolves_to_module("os", "os")
    assert not module.resolves_to_module("random", "random")


def test_from_import_resolution():
    module = _module("from random import Random as R\n")
    assert module.from_imports["R"] == ("random", "Random")


def test_parent_map():
    module = _module("x = f(1)\n")
    call = next(n for n in ast.walk(module.tree) if isinstance(n, ast.Call))
    assign = module.parent_of(call)
    assert isinstance(assign, ast.Assign)


# ------------------------------------------------------------------- registry
def test_registry_rejects_duplicate_ids():
    fresh = RuleRegistry()

    class R(Rule):
        id = "DET-001"

    fresh.add(R())
    with pytest.raises(ValueError):
        fresh.add(R())


def test_registry_family_selection():
    det = registry.select(select=["DET"])
    assert det and all(rule.id.startswith("DET-") for rule in det)
    only = registry.select(select=["DET-009"])
    assert [rule.id for rule in only] == ["DET-009"]
    rest = registry.select(ignore=["DET-001"])
    assert len(rest) == len(registry) - 1
    assert "DET-001" not in {rule.id for rule in rest}


def test_global_registry_has_the_det_family():
    ids = {rule.id for rule in registry}
    assert {"DET-001", "DET-002", "DET-003", "DET-004", "DET-005", "DET-009"} <= ids
    assert all(rule.id.startswith("DET-") for rule in registry)


def test_rule_exempts_matches_trailing_components():
    class R(Rule):
        id = "T-001"
        exempt_paths = ("crypto/*", "test_*.py")

    rule = R()
    assert rule.exempts("src/repro/crypto/rsa.py")
    assert rule.exempts("tests/test_anything.py")
    assert not rule.exempts("src/repro/core/ant.py")
    # A *directory* whose name merely contains the pattern must not
    # exempt files beneath it (pytest tmp dirs are named test_<case>).
    assert not rule.exempts("/tmp/test_case0/src/repro/mod.py")


# --------------------------------------------------------------- suppressions
def test_bare_noqa_suppresses_everything():
    module = _module("x = 1  # repro: noqa\n")
    table = collect_suppressions(module)
    assert table.suppresses(Finding("src/repro/x.py", 1, 1, "DET-001", "m"))
    assert table.suppresses(Finding("src/repro/x.py", 1, 1, "DET-014", "m"))


def test_scoped_noqa_only_matches_named_rules():
    module = _module("x = 1  # repro: noqa[DET-001, DET-014]\n")
    table = collect_suppressions(module)
    assert table.suppresses(Finding("src/repro/x.py", 1, 1, "DET-001", "m"))
    assert table.suppresses(Finding("src/repro/x.py", 1, 1, "DET-014", "m"))
    assert not table.suppresses(Finding("src/repro/x.py", 1, 1, "DET-002", "m"))


def test_noqa_is_line_scoped():
    module = _module("x = 1  # repro: noqa[DET-001]\ny = 2\n")
    table = collect_suppressions(module)
    assert not table.suppresses(Finding("src/repro/x.py", 2, 1, "DET-001", "m"))


def test_noqa_on_any_line_of_multiline_statement(tmp_path):
    """Regression: the comment used to match only the exact finding line,
    so a noqa on the closing paren of a wrapped call never suppressed
    the finding reported at the call's first line."""
    result = lint_source(
        tmp_path,
        """\
        import random

        value = random.choice(
            [1, 2, 3],
        )  # repro: noqa[DET-001]
        """,
        select=["DET-001"],
    )
    assert result.findings == []
    assert [f.rule_id for f in result.suppressed] == ["DET-001"]


def test_noqa_on_decorator_line_covers_the_def(tmp_path):
    """DET-007 reports at the ``def`` line, but the offending decorator
    (where the annotation naturally lives) may sit lines above it."""
    result = lint_source(
        tmp_path,
        """\
        import functools


        @functools.lru_cache  # repro: noqa[DET-007]
        def lookup(key):
            return key * 2
        """,
        select=["DET-007"],
    )
    assert result.findings == []
    assert [f.rule_id for f in result.suppressed] == ["DET-007"]


def test_noqa_on_def_line_does_not_blanket_the_body(tmp_path):
    """A compound statement's span is its *header* only — a noqa on the
    ``def`` line must not swallow findings inside the function body."""
    result = lint_source(
        tmp_path,
        """\
        import random


        def roll():  # repro: noqa[DET-001]
            return random.random()
        """,
        select=["DET-001"],
    )
    assert [f.rule_id for f in result.findings] == ["DET-001"]
    assert result.suppressed == []


def test_split_suppressed_partitions():
    module = _module("a = 1  # repro: noqa[DET-001]\n")
    keep = Finding("src/repro/x.py", 9, 1, "DET-001", "kept")
    drop = Finding("src/repro/x.py", 1, 1, "DET-001", "dropped")
    active, suppressed = split_suppressed([keep, drop], collect_suppressions(module))
    assert active == [keep]
    assert suppressed == [drop]


def test_suppressed_finding_is_reported_separately(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import random

        value = random.random()  # repro: noqa[DET-001]
        """,
        select=["DET-001"],
    )
    assert result.findings == []
    assert [f.rule_id for f in result.suppressed] == ["DET-001"]
    assert result.exit_code == 0


# --------------------------------------------------------------------- engine
def test_collect_files_sorted_and_skips_caches(tmp_path):
    write_fixture(tmp_path, "pkg/b.py", "x = 1\n")
    write_fixture(tmp_path, "pkg/a.py", "x = 1\n")
    write_fixture(tmp_path, "pkg/__pycache__/c.py", "x = 1\n")
    write_fixture(tmp_path, "pkg/readme.txt", "not python\n")
    files = collect_files([str(tmp_path / "pkg")])
    assert [f.name for f in files] == ["a.py", "b.py"]


def test_parse_error_yields_lint_000_and_exit_2(tmp_path):
    path = write_fixture(tmp_path, "src/bad.py", "def broken(:\n")
    result = analyze_paths([str(path)])
    assert result.findings == []
    assert [e.rule_id for e in result.errors] == ["LINT-000"]
    assert result.exit_code == 2


def test_clean_module_exit_0(tmp_path):
    result = lint_source(tmp_path, "import math\n\nTAU = 2 * math.pi\n")
    assert result.exit_code == 0
    assert result.files_analyzed == 1


# ------------------------------------------------------------------ reporters
def test_text_report_format(tmp_path):
    result = lint_source(
        tmp_path,
        "import random\nx = random.random()\n",
        select=["DET-001"],
    )
    text = render_text(result)
    line = text.splitlines()[0]
    assert line.startswith(f"{result.findings[0].path}:2:")
    assert "DET-001" in line
    assert "1 finding" in text.splitlines()[-1]
    assert "DET-001×1" in text.splitlines()[-1]


def test_json_report_shape(tmp_path):
    result = lint_source(
        tmp_path,
        "import random\nx = random.random()\n",
        select=["DET-001"],
    )
    payload = json.loads(render_json(result))
    assert payload["version"] == 2
    assert payload["exit_code"] == 1
    assert payload["counts"] == {"DET-001": 1}
    (finding,) = payload["findings"]
    assert finding["rule"] == "DET-001"
    assert finding["line"] == 2
    assert finding["path"].endswith("fixture_mod.py")


# ------------------------------------------------------------------------ cli
def test_cli_clean_run_exit_0(tmp_path):
    path = write_fixture(tmp_path, "src/ok.py", "VALUE = 3\n")
    out = io.StringIO()
    assert main([str(path)], stream=out) == 0
    assert "0 findings" in out.getvalue()


def test_cli_findings_exit_1_text_and_json(tmp_path):
    path = write_fixture(tmp_path, "src/dirty.py", "import random\nx = random.random()\n")
    text_out = io.StringIO()
    assert main([str(path), "--select", "DET-001"], stream=text_out) == 1
    assert "DET-001" in text_out.getvalue()

    json_out = io.StringIO()
    assert main([str(path), "--select", "DET-001", "--format", "json"], stream=json_out) == 1
    payload = json.loads(json_out.getvalue())
    assert payload["findings"][0]["rule"] == "DET-001"


def test_cli_ignore_flag(tmp_path):
    path = write_fixture(tmp_path, "src/dirty.py", "import random\nx = random.random()\n")
    out = io.StringIO()
    assert main([str(path), "--ignore", "DET"], stream=out) == 0


@pytest.mark.parametrize("flag", ["--select", "--ignore"])
@pytest.mark.parametrize("spec", ["ANON", "DET-099", "LINT-000"])
def test_cli_unknown_rule_id_is_a_usage_error(tmp_path, capsys, flag, spec):
    """An id that matches no registered rule exits 2 instead of running
    a pass that checks nothing (or everything)."""
    path = write_fixture(tmp_path, "src/dirty.py", "import random\nx = random.random()\n")
    with pytest.raises(SystemExit) as exc:
        main([str(path), flag, "DET-001", flag, spec], stream=io.StringIO())
    assert exc.value.code == 2
    assert f"{flag} {spec} matches no rule" in capsys.readouterr().err


def test_cli_list_rules(tmp_path):
    out = io.StringIO()
    assert main(["--list-rules"], stream=out) == 0
    listing = out.getvalue()
    for rule_id in ("DET-001", "DET-005", "DET-009", "DET-014"):
        assert rule_id in listing


def test_cli_parse_error_exit_2(tmp_path):
    path = write_fixture(tmp_path, "src/broken.py", "def nope(:\n")
    out = io.StringIO()
    assert main([str(path)], stream=out) == 2
    assert "LINT-000" in out.getvalue()
