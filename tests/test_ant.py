"""Tests for the Anonymous Neighbor Table and next-hop strategies."""

from __future__ import annotations

import pytest

from repro.core.ant import AnonymousNeighborTable, AntEntry
from repro.core.freshness import STRATEGIES, best_position, freshest_progress
from repro.geo.vec import Position


def _table(timeout=2.0):
    return AnonymousNeighborTable(timeout)


def test_update_and_get():
    table = _table()
    table.update(b"\x01" * 6, Position(10, 0), now=0.0)
    entry = table.get(b"\x01" * 6)
    assert entry is not None
    assert entry.position == Position(10, 0)


def test_multiple_entries_per_physical_neighbor():
    """The defining ANT property: fresh pseudonyms from one neighbor create
    distinct rows because the receiver cannot correlate them."""
    table = _table()
    table.update(b"\x01" * 6, Position(10, 0), now=0.0)
    table.update(b"\x02" * 6, Position(12, 0), now=1.0)  # same node, new hello
    assert len(table) == 2


def test_same_pseudonym_refreshes():
    table = _table()
    table.update(b"\x01" * 6, Position(10, 0), now=0.0)
    table.update(b"\x01" * 6, Position(11, 0), now=0.5)
    assert len(table) == 1
    assert table.get(b"\x01" * 6).position == Position(11, 0)


def test_purge_expired():
    table = _table(timeout=2.0)
    table.update(b"\x01" * 6, Position(0, 0), now=0.0)
    table.update(b"\x02" * 6, Position(0, 0), now=3.0)
    assert table.purge(now=3.0) == 1
    assert b"\x01" * 6 not in table


def test_candidates_strictly_closer():
    table = _table()
    table.update(b"\x01" * 6, Position(100, 0), now=0.0)  # progress
    table.update(b"\x02" * 6, Position(-50, 0), now=0.0)  # regress
    candidates = table.candidates_towards(Position(300, 0), Position(0, 0), now=0.0)
    assert [c.pseudonym for c in candidates] == [b"\x01" * 6]


def test_candidates_exclude_expired():
    table = _table(timeout=1.0)
    table.update(b"\x01" * 6, Position(100, 0), now=0.0)
    assert table.candidates_towards(Position(300, 0), Position(0, 0), now=5.0) == []


def test_remove():
    table = _table()
    table.update(b"\x01" * 6, Position(0, 0), now=0.0)
    table.remove(b"\x01" * 6)
    assert len(table) == 0


def test_timeout_positive():
    with pytest.raises(ValueError):
        AnonymousNeighborTable(0)


def test_predicted_position_dead_reckoning():
    entry = AntEntry(b"\x01" * 6, Position(0, 0), timestamp=0.0, velocity=(10.0, 0.0))
    assert entry.predicted_position(2.0) == Position(20, 0)
    static = AntEntry(b"\x02" * 6, Position(5, 5), timestamp=0.0)
    assert static.predicted_position(10.0) == Position(5, 5)


# ------------------------------------------------------------- strategies
def _entry(pseudonym, x, ts, velocity=(0.0, 0.0)):
    return AntEntry(pseudonym, Position(x, 0), ts, velocity)


def test_best_position_ignores_freshness():
    target = Position(300, 0)
    own = Position(0, 0)
    stale_best = _entry(b"\x01" * 6, 150, ts=0.0)
    fresh_worse = _entry(b"\x02" * 6, 100, ts=9.0)
    chosen = best_position(own, target, [stale_best, fresh_worse], now=10.0, timeout=10.0)
    assert chosen.pseudonym == b"\x01" * 6


def test_freshest_progress_prefers_fresh_entry():
    """Paper Sec 3.1.1: 'preferable to choose a fresher position rather
    than the best one'."""
    target = Position(300, 0)
    own = Position(0, 0)
    stale_best = _entry(b"\x01" * 6, 150, ts=0.0)
    fresh_worse = _entry(b"\x02" * 6, 100, ts=9.5)
    chosen = freshest_progress(own, target, [stale_best, fresh_worse], now=10.0, timeout=10.0)
    assert chosen.pseudonym == b"\x02" * 6


def test_freshest_progress_uses_velocity_prediction():
    target = Position(300, 0)
    own = Position(0, 0)
    # Advertised at x=100 moving toward the target at 20 m/s, 3 s ago -> 160.
    moving = _entry(b"\x01" * 6, 100, ts=0.0, velocity=(20.0, 0.0))
    static = _entry(b"\x02" * 6, 110, ts=0.0)
    chosen = freshest_progress(own, target, [moving, static], now=3.0, timeout=10.0)
    assert chosen.pseudonym == b"\x01" * 6


def test_strategies_none_on_empty():
    assert best_position(Position(0, 0), Position(1, 1), [], 0.0, 1.0) is None
    assert freshest_progress(Position(0, 0), Position(1, 1), [], 0.0, 1.0) is None


def test_freshest_progress_falls_back_when_prediction_regresses():
    target = Position(300, 0)
    own = Position(0, 0)
    # Predicted to have moved past/away, but advertised position had progress.
    runaway = _entry(b"\x01" * 6, 100, ts=0.0, velocity=(-50.0, 0.0))
    chosen = freshest_progress(own, target, [runaway], now=4.0, timeout=10.0)
    assert chosen is not None


def test_strategy_registry():
    assert STRATEGIES["best_position"] is best_position
    assert STRATEGIES["freshest_progress"] is freshest_progress
