"""Tests for the analysis engine: core model, suppressions, reporters, CLI."""

from __future__ import annotations

import ast
import io
import json

import pytest

from repro.analysis.core import (
    ANALYSIS_VERSION,
    Finding,
    ModuleContext,
    Rule,
    RuleRegistry,
    registry,
)
from repro.analysis.engine import analyze_paths, collect_files
from repro.analysis.cli import main
from repro.analysis.report import render_json, render_sarif, render_text
from repro.analysis.suppress import collect_suppressions, split_suppressed

from tests.analysis_helpers import lint_source, write_fixture


#: A module with one DET-003 finding, on line 2.
DIRTY = "import time\nx = time.time()\n"


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
    module = _module("import random as rnd\nimport os\nimport os.path\n")
    assert module.import_aliases == {"rnd": "random", "os": "os"}


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
    only = registry.select(select=["DET-004"])
    assert [rule.id for rule in only] == ["DET-004"]
    rest = registry.select(ignore=["DET-003"])
    assert len(rest) == len(registry) - 1
    assert "DET-003" not in {rule.id for rule in rest}


def test_global_registry_has_the_det_family():
    ids = {rule.id for rule in registry}
    assert ids == {"DET-003", "DET-004", "DET-012", "DET-013"}


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
    assert table.suppresses(Finding("src/repro/x.py", 1, 1, "DET-003", "m"))
    assert table.suppresses(Finding("src/repro/x.py", 1, 1, "DET-012", "m"))


def test_scoped_noqa_only_matches_named_rules():
    module = _module("x = 1  # repro: noqa[DET-003, DET-012]\n")
    table = collect_suppressions(module)
    assert table.suppresses(Finding("src/repro/x.py", 1, 1, "DET-003", "m"))
    assert table.suppresses(Finding("src/repro/x.py", 1, 1, "DET-012", "m"))
    assert not table.suppresses(Finding("src/repro/x.py", 1, 1, "DET-004", "m"))


def test_noqa_is_line_scoped():
    module = _module("x = 1  # repro: noqa[DET-003]\ny = 2\n")
    table = collect_suppressions(module)
    assert not table.suppresses(Finding("src/repro/x.py", 2, 1, "DET-003", "m"))


def test_noqa_on_any_line_of_multiline_statement(tmp_path):
    """Regression: the comment used to match only the exact finding line,
    so a noqa on the closing paren of a wrapped call never suppressed
    the finding reported at the call's first line."""
    result = lint_source(
        tmp_path,
        """\
        import os

        names = os.listdir(
            ".",
        )  # repro: noqa[DET-012]
        """,
        select=["DET-012"],
    )
    assert result.findings == []
    assert [f.rule_id for f in result.suppressed] == ["DET-012"]


def test_noqa_on_decorator_line_covers_the_def(tmp_path):
    """A finding in a default argument is reported at the ``def`` line,
    but the annotation may sit on a decorator lines above it."""
    result = lint_source(
        tmp_path,
        """\
        import functools
        import time


        @functools.wraps(print)  # repro: noqa[DET-003]
        def stamp(at=time.time()):
            return at
        """,
        select=["DET-003"],
    )
    assert result.findings == []
    assert [(f.rule_id, f.line) for f in result.suppressed] == [("DET-003", 6)]


def test_noqa_on_def_line_does_not_blanket_the_body(tmp_path):
    """A compound statement's span is its *header* only — a noqa on the
    ``def`` line must not swallow findings inside the function body."""
    result = lint_source(
        tmp_path,
        """\
        import time


        def stamp():  # repro: noqa[DET-003]
            return time.time()
        """,
        select=["DET-003"],
    )
    assert [f.rule_id for f in result.findings] == ["DET-003"]
    assert result.suppressed == []


def test_split_suppressed_partitions():
    module = _module("a = 1  # repro: noqa[DET-003]\n")
    keep = Finding("src/repro/x.py", 9, 1, "DET-003", "kept")
    drop = Finding("src/repro/x.py", 1, 1, "DET-003", "dropped")
    active, suppressed = split_suppressed([keep, drop], collect_suppressions(module))
    assert active == [keep]
    assert suppressed == [drop]


def test_suppressed_finding_is_reported_separately(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import time

        value = time.time()  # repro: noqa[DET-003]
        """,
        select=["DET-003"],
    )
    assert result.findings == []
    assert [f.rule_id for f in result.suppressed] == ["DET-003"]
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
        "import time\nx = time.time()\n",
        select=["DET-003"],
    )
    text = render_text(result)
    line = text.splitlines()[0]
    assert line.startswith(f"{result.findings[0].path}:2:")
    assert "DET-003" in line
    assert "1 finding" in text.splitlines()[-1]
    assert "DET-003×1" in text.splitlines()[-1]


def test_json_report_shape(tmp_path):
    result = lint_source(
        tmp_path,
        "import time\nx = time.time()\n",
        select=["DET-003"],
    )
    payload = json.loads(render_json(result))
    assert payload["version"] == 3
    assert payload["analysis_version"] == ANALYSIS_VERSION
    assert payload["exit_code"] == 1
    assert payload["counts"] == {"DET-003": 1}
    (finding,) = payload["findings"]
    assert finding["rule"] == "DET-003"
    assert finding["line"] == 2
    assert finding["path"].endswith("fixture_mod.py")


def test_sarif_structure_and_levels(tmp_path):
    result = lint_source(
        tmp_path,
        "import time\n\n"
        "a = time.time()\n"
        "b = time.time()  # repro: noqa[DET-003]\n",
        select=["DET-003"],
    )
    sarif = json.loads(render_sarif(result))

    assert sarif["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in sarif["$schema"]
    (run,) = sarif["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert driver["version"] == ANALYSIS_VERSION
    assert {rule["id"] for rule in driver["rules"]} == {rule.id for rule in registry}

    by_level = {}
    for row in run["results"]:
        by_level.setdefault(row["level"], []).append(row)
    (error_row,) = by_level["error"]  # the active finding
    (note_row,) = by_level["note"]  # the suppressed one
    assert note_row["suppressions"] == [{"kind": "inSource"}]
    location = error_row["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] == 3
    assert location["artifactLocation"]["uri"].endswith("fixture_mod.py")


# ------------------------------------------------------------------------ cli
def test_cli_clean_run_exit_0(tmp_path):
    path = write_fixture(tmp_path, "src/ok.py", "VALUE = 3\n")
    out = io.StringIO()
    assert main([str(path)], stream=out) == 0
    assert "0 findings" in out.getvalue()


def test_cli_findings_exit_1_text_and_json(tmp_path):
    path = write_fixture(tmp_path, "src/dirty.py", DIRTY)
    text_out = io.StringIO()
    assert main([str(path), "--select", "DET-003"], stream=text_out) == 1
    assert "DET-003" in text_out.getvalue()

    json_out = io.StringIO()
    assert main([str(path), "--select", "DET-003", "--format", "json"], stream=json_out) == 1
    payload = json.loads(json_out.getvalue())
    assert payload["findings"][0]["rule"] == "DET-003"


def test_cli_sarif_output_parses(tmp_path):
    path = write_fixture(tmp_path, "src/dirty.py", DIRTY)
    out = io.StringIO()
    assert main([str(path), "--select", "DET-003", "--format", "sarif"], stream=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"]


def test_cli_ignore_flag(tmp_path):
    path = write_fixture(tmp_path, "src/dirty.py", DIRTY)
    out = io.StringIO()
    assert main([str(path), "--ignore", "DET"], stream=out) == 0


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(
            [flag, "DET-003", flag, spec], f"{flag} {spec} matches no rule", id=f"{spec}-{flag}"
        )
        for flag in ("--select", "--ignore")
        for spec in ("ANON", "DET-099", "LINT-000")
    ]
    + [pytest.param(["srcx"], "no such file or directory: srcx", id="missing-path")],
)
def test_cli_unknown_rule_id_is_a_usage_error(tmp_path, monkeypatch, capsys, args, message):
    """An id that matches no registered rule, or a path that does not
    exist, exits 2 instead of running a pass that checks nothing (or
    everything)."""
    path = write_fixture(tmp_path, "src/dirty.py", DIRTY)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([str(path), *args], stream=io.StringIO())
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_list_rules(tmp_path):
    out = io.StringIO()
    assert main(["--list-rules"], stream=out) == 0
    listing = out.getvalue()
    for rule_id in ("DET-003", "DET-004", "DET-012", "DET-013"):
        assert rule_id in listing


def test_cli_parse_error_exit_2(tmp_path):
    path = write_fixture(tmp_path, "src/broken.py", "def nope(:\n")
    out = io.StringIO()
    assert main([str(path)], stream=out) == 2
    assert "LINT-000" in out.getvalue()
