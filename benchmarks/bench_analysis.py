"""Static-analysis benchmarks: what a whole-tree lint costs.

Not a paper table — these price the :mod:`repro.analysis` engine so the
CI gate stays cheap enough to run on every push:

* ``test_full_src_analysis`` — one full ``src/`` analysis: parsing,
  the project pre-pass (symbol table, call graph, taint summaries for
  both seed families, determinism facts) and every rule.  The tier-1
  wall-time floor (``tests/test_analysis_perf.py``) is a multiple of
  its committed mean.
* ``test_full_src_analysis_cached`` — the incremental path: ``cold``
  analyzes with an empty cache, ``warm`` re-runs against the cache the
  setup populated.  Parsing and fact construction always run (they are
  the cache key), so the derived ``incremental_cache_speedup`` prices
  exactly the skipped rule dispatch.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from repro.analysis.engine import analyze_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


@pytest.mark.benchmark(group="analysis")
def test_full_src_analysis(benchmark):
    result = benchmark.pedantic(analyze_paths, args=([SRC],), rounds=3)
    assert result.errors == []
    assert result.files_analyzed > 50


@pytest.mark.benchmark(group="analysis")
@pytest.mark.parametrize("state", ["cold", "warm"])
def test_full_src_analysis_cached(benchmark, state, tmp_path):
    cache_dir = tmp_path / "cache"
    warm_cache = tmp_path / "warm.json"
    if state == "warm":
        analyze_paths([SRC], cache_path=warm_cache)  # populate once

    def setup():
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir()
        cache_path = cache_dir / "cache.json"
        if state == "warm":
            shutil.copy(warm_cache, cache_path)
        return (cache_path,), {}

    def run(cache_path):
        return analyze_paths([SRC], cache_path=cache_path)

    result = benchmark.pedantic(run, setup=setup, rounds=3)
    assert result.errors == []
    if state == "warm":
        assert result.cache_misses == 0
        assert result.cache_hits == result.files_analyzed
    else:
        assert result.cache_hits == 0
