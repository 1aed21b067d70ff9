"""Wall-clock floor for the analysis engine, gated by the committed baseline.

Absolute timings are hardware-dependent, so the committed
``benchmarks/BENCH_analysis.json`` numbers are treated as a *floor
document*: its schema and derived ratio are asserted exactly, and the
session's shared, timed ``src/`` analysis only has to land within a
generous multiple of the committed mean — enough slack for CI-runner
variance, tight enough that an accidental quadratic blowup in the
summary fixpoint (the classic failure mode of interprocedural engines)
still fails loudly.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "benchmarks" / "BENCH_analysis.json"

#: CI-variance allowance over the committed mean.
_SLACK = 10.0


def _committed():
    return json.loads(BENCH_PATH.read_text(encoding="utf-8"))


def test_committed_analysis_bench_shape():
    doc = _committed()
    assert doc["schema_version"] == 1
    assert doc["suite"] == "analysis"
    names = set(doc["benchmarks"])
    assert {
        "test_full_src_analysis",
        "test_full_src_analysis_cached[cold]",
        "test_full_src_analysis_cached[warm]",
    } <= names
    derived = doc["derived"]
    # The cache must never make a run slower than cold.
    assert derived["incremental_cache_speedup"] >= 1.0


def test_full_repo_analysis_within_committed_floor(src_analysis):
    committed_mean = _committed()["benchmarks"]["test_full_src_analysis"]["mean_s"]
    elapsed = src_analysis.elapsed_s
    assert src_analysis.result.errors == []
    assert elapsed <= committed_mean * _SLACK, (
        f"full-src analysis took {elapsed:.2f}s, over "
        f"{_SLACK}x the committed mean of {committed_mean:.2f}s"
    )
