"""The linter's contract with this repository.

Two halves: the tree stays clean under the full rule set (the CI gate),
and a planted DET violation is actually caught with the right rule id
and location — i.e. the gate is not vacuously green.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.cli import main
from repro.analysis.engine import analyze_paths

from tests.analysis_helpers import write_fixture

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------- regression
def test_src_tree_is_clean_under_full_rule_set(src_analysis):
    result = src_analysis.result
    assert result.errors == []
    assert result.findings == [], "\n".join(
        f"{f.location()}: {f.rule_id} {f.message}" for f in result.findings
    )


def test_tests_tree_is_clean_under_full_rule_set():
    result = analyze_paths([str(REPO_ROOT / "tests")])
    assert result.errors == []
    assert result.findings == [], "\n".join(
        f"{f.location()}: {f.rule_id} {f.message}" for f in result.findings
    )


def test_whole_tree_passes_the_committed_baseline_gate():
    """The exact CI invocation: src+tests analyzed together (so
    cross-tree summaries are in play) gated by the committed baseline.
    The committed baseline is *empty* — the tree carries no known debt —
    which makes this the strongest form of the self-clean contract."""
    baseline_path = REPO_ROOT / "analysis_baseline.json"
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert payload["schema"] == 1
    assert payload["entries"] == {}, "tree should carry no baselined debt"

    out = io.StringIO()
    code = main(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"),
         "--baseline", str(baseline_path)],
        stream=out,
    )
    assert code == 0, out.getvalue()


def test_engine_is_deterministic_across_runs(src_analysis):
    """A second run in a fresh interpreter under another hash seed must
    report the same findings in the same order.  An in-process rerun
    shares the hash seed, so it cannot see set-iteration order leaking
    into the output."""
    first = src_analysis.result
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    python_path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join(p for p in python_path if p),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(REPO_ROOT / "src"),
         "--format", "json"],
        capture_output=True, text=True, env=env, check=False, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    second = json.loads(proc.stdout)
    assert second["findings"] == [f.as_dict() for f in first.findings]
    assert second["suppressed"] == [f.as_dict() for f in first.suppressed]
    assert second["files_analyzed"] == first.files_analyzed


# ---------------------------------------------------- planted DET violation
_PLANTED_DET = """\
import random


def pick_forwarder(neighbors):
    rng = random.Random()
    return rng.choice(neighbors)
"""


def test_planted_unseeded_random_in_routing_is_caught(tmp_path):
    path = write_fixture(tmp_path, "src/repro/routing/planted.py", _PLANTED_DET)

    text_out = io.StringIO()
    assert main([str(path)], stream=text_out) == 1
    assert f"{path.as_posix()}:5:" in text_out.getvalue()
    assert "DET-002" in text_out.getvalue()

    json_out = io.StringIO()
    assert main([str(path), "--format", "json"], stream=json_out) == 1
    payload = json.loads(json_out.getvalue())
    rules = {f["rule"] for f in payload["findings"]}
    assert "DET-002" in rules
    (det,) = [f for f in payload["findings"] if f["rule"] == "DET-002"]
    assert det["line"] == 5
    assert det["path"] == path.as_posix()


# -------------------------------------------------- faults subsystem (DET)
def test_faults_subsystem_is_clean_under_det_rules():
    """The fault-injection subsystem draws all its randomness from
    per-purpose derived streams — the DET family must see nothing."""
    result = analyze_paths(
        [str(REPO_ROOT / "src" / "repro" / "faults")],
        select=["DET-001", "DET-002", "DET-003"],
    )
    assert result.errors == []
    assert result.findings == []
    assert result.files_analyzed >= 3  # __init__, loss, plan


_PLANTED_FAULTS_DET = """\
import random

_SHARED = random.Random()


def drop(rate):
    return _SHARED.random() < rate
"""


def test_planted_module_level_rng_in_faults_is_caught(tmp_path):
    """The gate over the faults tree is not vacuous: an unseeded
    module-level RNG planted there still fires DET-002."""
    path = write_fixture(tmp_path, "src/repro/faults/planted.py", _PLANTED_FAULTS_DET)
    result = analyze_paths([str(path)], select=["DET-002"])
    assert [f.rule_id for f in result.findings] == ["DET-002"]
    assert result.findings[0].line == 3
