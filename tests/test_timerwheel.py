"""Queue-level checks on every engine build: pop order is the full
``(time, priority, seq)`` key order, compaction drops corpses without
reordering the survivors, and ``iter_pending`` sees live events only.

The ``msim`` fixture (see ``conftest.py``) supplies the builds.
"""

from __future__ import annotations


def _record(msim, entries) -> tuple:
    """Schedule ``(time, priority)`` entries at absolute times, each
    appending its index when it fires; returns the firing log and the
    event handles."""
    fired = []
    handles = [
        msim.schedule_at(time, lambda i=index: fired.append(i), priority=priority)
        for index, (time, priority) in enumerate(entries)
    ]
    return fired, handles


def test_pop_order_is_full_key_order(msim):
    entries = [
        (0.005, 0),
        (0.005, -1),  # same time, higher priority -> earlier
        (0.0001, 0),
        (0.5, 0),
        (0.005, 0),  # same (time, priority): schedule order breaks the tie
    ]
    fired, _ = _record(msim, entries)
    msim.run()
    assert fired == sorted(range(len(entries)), key=lambda i: (*entries[i], i))


def test_compact_removes_corpses_and_preserves_order(msim):
    entries = [(0.001 * (i % 20) + 0.0001 * i, 0) for i in range(1500)]
    fired, handles = _record(msim, entries)
    live = []
    for i, handle in enumerate(handles):
        if i % 3:
            handle.cancel()
        else:
            live.append(i)
    stats = msim.scheduler_stats()
    assert stats["compactions"] >= 1
    assert stats["pending"] == len(live)
    # Compaction keeps corpses to at most half of any large backlog.
    assert (stats["backlog"] - stats["pending"]) * 2 <= stats["backlog"]
    msim.run()
    assert fired == sorted(live, key=lambda i: (entries[i][0], i))


def test_iter_events_yields_live_events_only(msim):
    msim.schedule(0.001, lambda: None, name="keep")
    msim.schedule(0.002, lambda: None, name="near-dead").cancel()
    msim.schedule(5.0, lambda: None, name="far")
    assert sorted(event.name for event in msim.iter_pending()) == ["far", "keep"]
