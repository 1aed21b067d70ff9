"""Per-rule fixtures for the DET determinism rules.

Each rule gets a positive fixture (fires with the right id and line),
a negative fixture (the compliant idiom passes), and — where the rule
has one — an allowlisted-path fixture.
"""

from __future__ import annotations

from tests.analysis_helpers import lint_source, rule_ids


# ------------------------------------------------------------------- DET-003
def test_det003_wall_clock(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import time

        def freshness():
            return time.time()
        """,
        select=["DET-003"],
    )
    assert rule_ids(result) == ["DET-003"]
    assert "wall clock" in result.findings[0].message


def test_det003_uuid4_and_urandom(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import os
        import uuid

        def fresh_nonce():
            return uuid.uuid4().bytes + os.urandom(8)
        """,
        select=["DET-003"],
    )
    assert sorted(rule_ids(result)) == ["DET-003", "DET-003"]


def test_det003_datetime_now_via_from_import(tmp_path):
    """Both import forms resolve to ``datetime.datetime.now``."""
    result = lint_source(
        tmp_path,
        "import datetime\nfrom datetime import datetime as dt\n\n"
        "stamp = dt.now()\nagain = datetime.datetime.now()\n",
        select=["DET-003"],
    )
    assert [(f.rule_id, f.line) for f in result.findings] == [("DET-003", 4), ("DET-003", 5)]


def test_det003_perf_counter_is_allowed(tmp_path):
    result = lint_source(
        tmp_path,
        "import time\n\nstarted = time.perf_counter()\n",
        select=["DET-003"],
    )
    assert result.findings == []


# ------------------------------------------------------------------- DET-004
def test_det004_float_time_equality(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def stale(entry, now):
            return entry.timestamp == now
        """,
        select=["DET-004"],
    )
    assert "DET-004" in rule_ids(result)


def test_det004_tolerance_compare_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def stale(entry, now, eps=1e-9):
            return abs(entry.timestamp - now) < eps
        """,
        select=["DET-004"],
    )
    assert result.findings == []


def test_det004_integer_tick_compare_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def on_tick(deadline_tick, tick):
            return int(deadline_tick) == int(tick)
        """,
        select=["DET-004"],
    )
    assert result.findings == []


def test_det004_test_files_are_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        "def check(sim):\n    assert sim.now == 5.0\n",
        select=["DET-004"],
        rel="tests/test_fixture_clock.py",
    )
    assert result.findings == []


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


# ------------------------------------------------------------------- DET-013
def test_det013_unstable_argsort(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import numpy as np

        def order(keys):
            return np.argsort(keys)

        def ranked(keys):
            return np.sort(keys)
        """,
        select=["DET-013"],
    )
    assert rule_ids(result) == ["DET-013", "DET-013"]
    assert 'kind="stable"' in result.findings[0].message


def test_det013_stable_sort_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import numpy as np

        def order(keys):
            return np.argsort(keys, kind="stable")

        def ranked(keys):
            return np.sort(keys, kind="mergesort")
        """,
        select=["DET-013"],
    )
    assert result.findings == []


def test_det013_unique_with_return_index(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import numpy as np

        def firsts(keys):
            values, index = np.unique(keys, return_index=True)
            return index
        """,
        select=["DET-013"],
    )
    assert rule_ids(result) == ["DET-013"]
    assert "return_index" in result.findings[0].message


def test_det013_plain_unique_passes(tmp_path):
    """Sorted uniques carry no tie-order information (the
    ArraySpatialIndex.stats() occupancy count is this shape)."""
    result = lint_source(
        tmp_path,
        """\
        import numpy as np

        def occupancy(packed_cells):
            cells, counts = np.unique(packed_cells, return_counts=True)
            return len(cells), counts.max()
        """,
        select=["DET-013"],
    )
    assert result.findings == []


def test_det013_tests_are_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        "import numpy as np\n\norder = np.argsort([2, 1, 2])\n",
        select=["DET-013"],
        rel="tests/test_fixture.py",
    )
    assert result.findings == []
