"""Baseline gating, incremental cache, and SARIF reporter tests."""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.analysis.baseline import Baseline, normalize_path
from repro.analysis.cli import main
from repro.analysis.core import ANALYSIS_VERSION, Finding
from repro.analysis.engine import analyze_paths
from repro.analysis.report import render_sarif

from tests.analysis_helpers import write_fixture

DIRTY = "import random\n\nvalue = random.random()\n"


def _tree(tmp_path, name="a.py", source=DIRTY) -> Path:
    return write_fixture(tmp_path, f"src/repro/{name}", source)


# ------------------------------------------------------------------ baseline
def test_normalize_path_anchors_and_fallback():
    assert normalize_path("/home/ci/repo/src/repro/core/als.py") == "src/repro/core/als.py"
    assert normalize_path("src/repro/core/als.py") == "src/repro/core/als.py"
    assert normalize_path("/tmp/pytest-1/case0/tests/test_x.py") == "tests/test_x.py"
    assert normalize_path("/opt/elsewhere/tool.py") == "elsewhere/tool.py"


def test_baseline_partition_consumes_counts():
    findings = [
        Finding("src/repro/a.py", 3, 1, "DET-001", "m"),
        Finding("src/repro/a.py", 9, 1, "DET-001", "m"),
    ]
    snippet_of = lambda f: "value = random.random()"  # identical snippets
    base = Baseline.from_findings(findings[:1], snippet_of)
    new, baselined = base.partition(findings, snippet_of)
    # One allowed occurrence: the first match is debt, the second is new.
    assert len(baselined) == 1 and len(new) == 1


def test_baseline_survives_line_moves_but_not_edits(tmp_path):
    path = _tree(tmp_path)
    base_path = tmp_path / "baseline.json"
    result = analyze_paths([str(path)], select=["DET-001"])
    Baseline.from_findings(
        result.findings, lambda f: "value = random.random()"
    ).save(base_path)
    base = Baseline.load(base_path)

    # Same snippet, different line (a comment was inserted above): still debt.
    moved = [Finding(str(path), 30, 1, "DET-001", "m")]
    new, baselined = base.partition(moved, lambda f: "value = random.random()")
    assert new == [] and baselined == moved

    # The flagged code itself changed: the finding must resurface.
    edited = [Finding(str(path), 3, 1, "DET-001", "m")]
    new, baselined = base.partition(edited, lambda f: "value = random.choice(x)")
    assert baselined == [] and new == edited


def test_baseline_roundtrip_and_schema(tmp_path):
    base_path = tmp_path / "baseline.json"
    Baseline(entries={"src/a.py|DET-001|x = 1": 2}).save(base_path)
    payload = json.loads(base_path.read_text())
    assert payload["schema"] == 1
    assert payload["analysis_version"] == ANALYSIS_VERSION
    assert Baseline.load(base_path).entries == {"src/a.py|DET-001|x = 1": 2}


def test_cli_baseline_gate_and_update(tmp_path):
    path = _tree(tmp_path)
    base_path = tmp_path / "baseline.json"

    # Without a baseline the dirty tree fails the gate.
    assert main([str(path), "--select", "DET-001"], stream=io.StringIO()) == 1

    # --update-baseline pins the debt and exits 0.
    out = io.StringIO()
    assert (
        main(
            [str(path), "--select", "DET-001",
             "--baseline", str(base_path), "--update-baseline"],
            stream=out,
        )
        == 0
    )
    assert "baseline updated with 1 finding" in out.getvalue()

    # Gated run is now clean, with the finding reported as baselined.
    out = io.StringIO()
    assert (
        main([str(path), "--select", "DET-001", "--baseline", str(base_path)],
             stream=out)
        == 0
    )
    assert "1 baselined" in out.getvalue()

    # A *second* violation is new debt and fails the gate again.
    write_fixture(tmp_path, "src/repro/a.py", DIRTY + "\nother = random.random()\n")
    assert (
        main([str(path), "--select", "DET-001", "--baseline", str(base_path)],
             stream=io.StringIO())
        == 1
    )


def test_cli_update_baseline_requires_baseline_path(tmp_path):
    path = _tree(tmp_path)
    assert main([str(path), "--update-baseline"], stream=io.StringIO()) == 2


# --------------------------------------------------------------------- cache
def test_cache_cold_then_warm(tmp_path):
    _tree(tmp_path, "a.py")
    _tree(tmp_path, "b.py", "TABLE = (1, 2, 3)\n")
    cache = tmp_path / "cache.json"
    root = str(tmp_path / "src")

    cold = analyze_paths([root], select=["DET-001"], cache_path=cache)
    assert (cold.cache_hits, cold.cache_misses) == (0, 2)

    warm = analyze_paths([root], select=["DET-001"], cache_path=cache)
    assert (warm.cache_hits, warm.cache_misses) == (2, 0)
    assert [f.as_dict() for f in warm.findings] == [f.as_dict() for f in cold.findings]
    assert warm.exit_code == cold.exit_code == 1


def test_cache_invalidates_only_the_edited_file(tmp_path):
    _tree(tmp_path, "a.py")
    _tree(tmp_path, "b.py", "TABLE = (1, 2, 3)\n")
    cache = tmp_path / "cache.json"
    root = str(tmp_path / "src")
    analyze_paths([root], select=["DET-001"], cache_path=cache)

    write_fixture(tmp_path, "src/repro/b.py", "TABLE = (1, 2, 3, 4)\n")
    rerun = analyze_paths([root], select=["DET-001"], cache_path=cache)
    assert (rerun.cache_hits, rerun.cache_misses) == (1, 1)


def test_cache_discarded_when_cross_module_facts_change(tmp_path):
    """Soundness: file A's cached findings depend on facts from file B.
    Editing *B* so that its helper now returns a set must not serve A's
    stale 'clean' result — the facts key changes and the whole cache is
    discarded."""
    write_fixture(
        tmp_path,
        "src/repro/fixpkg/__init__.py",
        "",
    )
    write_fixture(
        tmp_path,
        "src/repro/fixpkg/helpers.py",
        "def members(roster):\n    return list(roster)\n",
    )
    write_fixture(
        tmp_path,
        "src/repro/fixpkg/user.py",
        "from repro.fixpkg.helpers import members\n\n\n"
        "def notify(roster, sim):\n"
        "    for member in members(roster):\n"
        "        sim.schedule(0.1, member)\n",
    )
    cache = tmp_path / "cache.json"
    root = str(tmp_path / "src")
    clean = analyze_paths([root], select=["DET-009"], cache_path=cache)
    assert clean.findings == [] and clean.cache_misses == 3

    # The edit is in helpers.py, but user.py is where the (previously
    # cached as clean) finding must now appear.
    write_fixture(
        tmp_path,
        "src/repro/fixpkg/helpers.py",
        "def members(roster):\n    return set(roster)\n",
    )
    rerun = analyze_paths([root], select=["DET-009"], cache_path=cache)
    assert [f.rule_id for f in rerun.findings] == ["DET-009"]
    assert rerun.findings[0].path.endswith("user.py")
    assert rerun.cache_hits == 0  # facts key changed: no stale entry served


def test_cli_cache_flag_reports_hits(tmp_path):
    path = _tree(tmp_path)
    cache = tmp_path / "cache.json"
    main([str(path), "--select", "DET-001", "--cache", str(cache)],
         stream=io.StringIO())
    out = io.StringIO()
    main([str(path), "--select", "DET-001", "--cache", str(cache)], stream=out)
    assert "[cache: 1 hits, 0 misses]" in out.getvalue()


# --------------------------------------------------------------------- sarif
def test_sarif_structure_and_levels(tmp_path):
    path = _tree(
        tmp_path,
        "mixed.py",
        "import random\n\n"
        "a = random.random()\n"
        "b = random.random()  # repro: noqa[DET-001]\n",
    )
    result = analyze_paths([str(path)], select=["DET-001"])
    result.baselined = [Finding(str(path), 99, 1, "DET-001", "old debt")]
    sarif = json.loads(render_sarif(result))

    assert sarif["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in sarif["$schema"]
    (run,) = sarif["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert driver["version"] == ANALYSIS_VERSION
    rule_ids = {rule["id"] for rule in driver["rules"]}
    assert {"DET-001", "DET-009", "DET-012", "DET-014"} <= rule_ids

    by_level = {}
    for row in run["results"]:
        by_level.setdefault(row["level"], []).append(row)
    assert len(by_level["error"]) == 1  # the active finding
    notes = by_level["note"]
    assert len(notes) == 2  # baselined + suppressed
    suppressed_rows = [row for row in notes if "suppressions" in row]
    assert len(suppressed_rows) == 1
    assert suppressed_rows[0]["suppressions"] == [{"kind": "inSource"}]

    (error_row,) = by_level["error"]
    location = error_row["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] == 3
    assert location["artifactLocation"]["uri"].endswith("mixed.py")


def test_cli_sarif_output_parses(tmp_path):
    path = _tree(tmp_path)
    out = io.StringIO()
    assert main([str(path), "--select", "DET-001", "--format", "sarif"],
                stream=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"]
