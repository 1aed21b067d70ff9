"""The linter's contract with this repository.

Two halves: the tree stays clean under the full rule set (the CI step
fails on any finding), and a planted DET violation is actually caught
with the right rule id and location — i.e. the step is not vacuously
green.
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
import time


def neighbor_is_fresh(entry, timeout):
    return time.time() - entry.timestamp <= timeout
"""


def test_planted_wall_clock_in_routing_is_caught(tmp_path):
    path = write_fixture(tmp_path, "src/repro/routing/planted.py", _PLANTED_DET)

    text_out = io.StringIO()
    assert main([str(path)], stream=text_out) == 1
    assert f"{path.as_posix()}:5:" in text_out.getvalue()
    assert "DET-003" in text_out.getvalue()

    json_out = io.StringIO()
    assert main([str(path), "--format", "json"], stream=json_out) == 1
    payload = json.loads(json_out.getvalue())
    (det,) = payload["findings"]
    assert det["rule"] == "DET-003"
    assert det["line"] == 5
    assert det["path"] == path.as_posix()
