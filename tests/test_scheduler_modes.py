"""The engine's clock contract, run on every engine build.

Each test takes the ``msim`` fixture (see ``conftest.py``): a plain
:class:`Simulator`, one whose queue carries a backlog of cancelled
timers, and a :class:`CheckedSimulator` that checks every pop against
the live queue.  All three must honour the same
contract — ordering, stop/resume, ``max_events``, drain-after-stop —
and the compaction bound under mass-cancel churn.  The randomized
schedule/cancel churn is checked against a ``sorted()`` reference queue.
"""

from __future__ import annotations

import random

from repro.sim.trace import Tracer


def test_ordering_time_priority_seq(msim):
    order = []
    msim.schedule(2.0, lambda: order.append("late"))
    msim.schedule(1.0, lambda: order.append("t1-a"))
    msim.schedule(1.0, lambda: order.append("t1-b"))  # same instant: FIFO
    msim.schedule(1.0, lambda: order.append("t1-pri"), priority=-1)
    msim.run()
    assert order == ["t1-pri", "t1-a", "t1-b", "late"]


def test_run_until_inclusive_and_clamped(msim):
    fired = []
    msim.schedule(5.0, lambda: fired.append(1))
    msim.schedule(7.0, lambda: fired.append(2))
    msim.run(until=5.0)
    assert fired == [1]
    assert msim.now == 5.0
    msim.run(until=20.0)
    assert fired == [1, 2]
    assert msim.now == 20.0


def test_max_events_leaves_clock_mid_stream(msim):
    fired = []
    for t in (1.0, 2.0, 3.0):
        msim.schedule(t, lambda t=t: fired.append(t))
    msim.run(until=10.0, max_events=2)
    assert fired == [1.0, 2.0]
    assert msim.now == 2.0
    msim.run(until=10.0)
    assert fired == [1.0, 2.0, 3.0]
    assert msim.now == 10.0


def test_stop_then_resume_without_time_skip(msim):
    fired = []

    def stopper():
        fired.append(msim.now)
        msim.stop()

    msim.schedule(1.0, stopper)
    msim.schedule(1.0, lambda: fired.append(msim.now))  # same-instant sibling
    msim.schedule(2.0, lambda: fired.append(msim.now))
    msim.run(until=10.0)
    assert fired == [1.0]
    assert msim.now == 1.0  # not clamped: the run was interrupted
    msim.run(until=10.0)
    assert fired == [1.0, 1.0, 2.0]
    assert msim.now == 10.0


def test_drain_after_stop_keeps_clock_at_last_event(msim):
    """Queue drains in the same iteration stop() fires: still an
    interrupted run — the clock must not jump to the horizon."""
    msim.schedule(1.0, msim.stop)  # the only live event
    msim.run(until=10.0)
    assert msim.now == 1.0


def test_nested_scheduling_across_the_wheel_window(msim):
    """Callbacks scheduling far, near and same-instant events (in that
    order) still fire them by time."""
    fired = []

    def fan_out():
        msim.schedule(5.0, lambda: fired.append("far"))
        msim.schedule(0.004, lambda: fired.append("near"))
        msim.schedule(0.0, lambda: fired.append("same-instant"))

    msim.schedule(1.0, fan_out)
    msim.run()
    assert fired == ["same-instant", "near", "far"]
    assert msim.now == 6.0


def test_mass_cancel_churn_keeps_backlog_bounded(msim):
    """90% of a large backlog cancelled: compaction must bound the
    backlog instead of holding corpses to their expiry."""
    handles = [
        msim.schedule(0.001 + 1e-5 * i, lambda: None) for i in range(5000)
    ]
    for i, handle in enumerate(handles):
        if i % 10:
            handle.cancel()
    stats = msim.scheduler_stats()
    assert stats["compactions"] >= 1
    assert stats["backlog"] < 2 * msim.pending_events + 512
    assert msim.pending_events == 500
    msim.run()
    assert msim.processed_events == 500


class _RefEvent:
    def __init__(self, key: tuple, callback) -> None:
        self.key = key
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _SortedReference:
    """The oracle: pending events in a plain list, the next one picked by
    ``sorted()`` on ``(time, priority, seq)``."""

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._pending: list = []

    def schedule(self, delay: float, callback, *, priority: int = 0) -> _RefEvent:
        self._seq += 1
        event = _RefEvent((self.now + delay, priority, self._seq), callback)
        self._pending.append(event)
        return event

    def run(self, max_events: int) -> None:
        for _ in range(max_events):
            live = sorted((e for e in self._pending if not e.cancelled), key=lambda e: e.key)
            if not live:
                return
            head, self._pending = live[0], live[1:]
            self.now = head.key[0]
            head.callback()


def _churn_fired(sim) -> list:
    """Randomized nested schedule/cancel churn; the rng is drawn inside
    callbacks, so any pop-order difference diverges every later entry."""
    rnd = random.Random(99)
    fired = []
    handles = []

    def emitter(tag: int) -> None:
        fired.append((sim.now, tag))
        for _ in range(rnd.randint(0, 2)):
            tag2 = rnd.randint(0, 10**6)
            delay = rnd.choice([0.0, 1e-4, 3e-3, 0.02, 1.5]) * rnd.random()
            handles.append(
                sim.schedule(delay, lambda t=tag2: emitter(t), priority=rnd.randint(-1, 1))
            )
        if handles and rnd.random() < 0.3:
            handles.pop(rnd.randrange(len(handles))).cancel()

    for i in range(40):
        handles.append(sim.schedule(rnd.random() * 2.0, lambda t=i: emitter(t)))
    sim.run(max_events=4000)
    return fired


def test_randomized_workload_equivalent_across_modes(msim):
    fired = _churn_fired(msim)
    assert len(fired) > 100
    assert fired == _churn_fired(_SortedReference())


def test_engine_report_formats(msim):
    msim.schedule(1.0, lambda: None)
    msim.run()
    tracer = Tracer()
    tracer.emit(0.0, "app.send", node=0)
    assert msim.scheduler_stats()["processed"] == 1
    assert tracer.dispatch_stats()["retained_records"] == 1
