"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import math

import pytest

from repro.sim.engine import SimulationError, Simulator, call_later


def test_initial_time_is_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_single_event_fires_at_scheduled_time(sim):
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order(sim):
    order = []
    for tag in "abcde":
        sim.schedule(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == list("abcde")


def test_priority_breaks_time_ties(sim):
    order = []
    sim.schedule(1.0, lambda: order.append("late"), priority=5)
    sim.schedule(1.0, lambda: order.append("early"), priority=-5)
    sim.run()
    assert order == ["early", "late"]


def test_zero_delay_fires_after_current_instant_events(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, lambda: order.append("nested"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_rejected(bad):
    """A NaN time compares false against everything, so a bare heap would
    fire it first and set ``now`` to NaN; an infinite one never fires.
    Every entry point refuses both without queueing anything.  As a run
    horizon, NaN would never be reached (``time > nan`` is always False)
    and is refused too; ``inf`` means no horizon."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(bad, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(bad, lambda: None)
    assert sim.pending_events == 0
    sim.schedule_at(1.5, lambda: None)
    if bad == math.inf:
        sim.run(until=bad)
        assert sim.now == 1.5  # drained with no horizon to clamp to
    else:
        with pytest.raises(SimulationError):
            sim.run(until=bad)
        assert sim.pending_events == 1 and sim.now == 0.0


def test_cancelled_event_does_not_fire(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_accepts_none(sim):
    sim.cancel(None)  # must not raise


def test_cancel_is_idempotent(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_stops_clock_at_horizon(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(2))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0


def test_run_until_is_inclusive(sim):
    fired = []
    sim.schedule(5.0, lambda: fired.append(1))
    sim.run(until=5.0)
    assert fired == [1]


def test_resume_after_until(sim):
    fired = []
    sim.schedule(10.0, lambda: fired.append(1))
    sim.run(until=5.0)
    sim.run(until=20.0)
    assert fired == [1]


def test_empty_run_advances_to_until(sim):
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_max_events_bound(sim):
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_stop_halts_loop(sim):
    fired = []

    def stopper():
        fired.append("stop")
        sim.stop()

    sim.schedule(1.0, stopper)
    sim.schedule(2.0, lambda: fired.append("after"))
    sim.run()
    assert fired == ["stop"]


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def outer():
        sim.schedule(1.0, lambda: fired.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["inner"]
    assert sim.now == 2.0


def test_reentrant_run_rejected(sim):
    def recurse():
        sim.run()

    sim.schedule(1.0, recurse)
    with pytest.raises(SimulationError):
        sim.run()


def test_processed_events_counter(sim):
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_pending_events_excludes_cancelled(sim):
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_events == 1
    assert keep.pending
    assert not drop.pending


def test_consumed_event_cannot_be_cancelled_late(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    sim.run()
    handle.cancel()  # no-op: already consumed
    assert fired == [1]


def test_call_later_binds_arguments(sim):
    seen = []
    call_later(sim, 1.0, lambda a, b: seen.append((a, b)), 1, 2)
    sim.run()
    assert seen == [(1, 2)]


def test_many_events_heap_stress(sim):
    import random as _random

    rnd = _random.Random(0)
    times = [rnd.uniform(0, 100) for _ in range(2000)]
    fired = []
    for t in times:
        sim.schedule(t, lambda t=t: fired.append(t))
    sim.run()
    assert fired == sorted(times)


# ------------------------------------------------------- clock contract
def test_max_events_does_not_clamp_to_until(sim):
    """Cut short by max_events with work still pending below the horizon:
    the clock must stay at the last executed event, not jump to until."""
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda t=t: fired.append(t))
    sim.run(until=10.0, max_events=2)
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0
    assert sim.pending_events == 1


def test_max_events_resume_continues_mid_stream(sim):
    fired = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.schedule(t, lambda t=t: fired.append(t))
    sim.run(max_events=1)
    sim.run(max_events=2)
    sim.run()
    assert fired == [1.0, 2.0, 3.0, 4.0]
    assert sim.now == 4.0


def test_until_clamps_when_next_event_beyond_horizon(sim):
    """Horizon genuinely reached (next event lies beyond it): clamp."""
    sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert sim.pending_events == 1


def test_stop_then_rerun_resumes_without_time_skip(sim):
    fired = []

    def stopper():
        fired.append(sim.now)
        sim.stop()

    sim.schedule(1.0, stopper)
    sim.schedule(1.0, lambda: fired.append(sim.now))  # same instant, later seq
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run(until=10.0)
    # Interrupted at t=1: the same-instant sibling has not fired yet and
    # the clock has not been clamped to the horizon.
    assert fired == [1.0]
    assert sim.now == 1.0
    assert sim.pending_events == 2
    sim.run(until=10.0)
    assert fired == [1.0, 1.0, 2.0]
    assert sim.now == 10.0


def test_schedule_between_stop_and_resume(sim):
    """stop() leaves the clock un-clamped, so follow-up scheduling relative
    to now lands where the interrupted timeline expects it."""
    sim.schedule(1.0, sim.stop)
    sim.run(until=4.0)
    assert sim.now == 1.0
    fired = []
    sim.schedule(0.5, lambda: fired.append(sim.now))
    sim.run(until=4.0)
    assert fired == [1.5]
    assert sim.now == 4.0


# ------------------------------------------------------------ call_later
def test_call_later_passes_priority_through(sim):
    """Regression: ``call_later`` used to drop ``priority``, losing the
    intended same-instant ordering of helpers scheduled through it."""
    order = []
    call_later(sim, 1.0, order.append, "late", priority=5)
    call_later(sim, 1.0, order.append, "early", priority=-5)
    sim.run()
    assert order == ["early", "late"]


def test_call_later_name_defaults_to_callable_name(sim):
    def beacon_timer():
        pass

    event = call_later(sim, 1.0, beacon_timer)
    assert event.name == "beacon_timer"
    named = call_later(sim, 1.0, beacon_timer, name="custom")
    assert named.name == "custom"


def test_events_are_not_comparable():
    """The heap orders raw key tuples; Event deliberately has no __lt__."""
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None)
    b = sim.schedule(2.0, lambda: None)
    with pytest.raises(TypeError):
        a < b  # noqa: B015 - the comparison itself is the assertion


# ------------------------------------------------------------ compaction
def test_mass_cancellation_compacts_backlog(sim):
    """90%-cancel churn: the backlog must stay bounded by compaction
    instead of holding every corpse until its original expiry."""
    handles = [sim.schedule(1.0 + i * 1e-4, lambda: None) for i in range(4000)]
    for i, handle in enumerate(handles):
        if i % 10:
            handle.cancel()
    stats = sim.scheduler_stats()
    assert stats["compactions"] >= 1
    # Dead fraction is kept below half of a >COMPACT_MIN_BACKLOG backlog.
    assert stats["backlog"] < 2 * sim.pending_events + 512
    fired = []
    for handle in handles:
        if handle.pending:
            handle.callback = lambda: fired.append(1)  # type: ignore[method-assign]
    sim.run()
    assert len(fired) == 400


def test_small_backlogs_never_compact(sim):
    handles = [sim.schedule(1.0, lambda: None) for _ in range(100)]
    for handle in handles:
        handle.cancel()
    assert sim.scheduler_stats()["compactions"] == 0


def test_compaction_inside_a_running_callback(sim):
    """A callback whose cancels trigger compaction mid-run, then schedules
    more: the run loop keeps draining the compacted heap, in order, and
    sees the events scheduled after the compaction."""
    handles = [sim.schedule(2.0 + i * 1e-3, lambda: None) for i in range(2000)]
    fired = []
    for i in range(0, 2000, 100):
        handles[i].callback = lambda i=i: fired.append(i)  # type: ignore[method-assign]

    def mass_cancel():
        for i, handle in enumerate(handles):
            if i % 100:
                handle.cancel()
        sim.schedule(0.5, lambda: fired.append("after-compaction"))

    sim.schedule(1.0, mass_cancel)
    sim.run()
    assert sim.scheduler_stats()["compactions"] >= 1
    assert fired == ["after-compaction"] + list(range(0, 2000, 100))
    assert sim.pending_events == 0
