"""Discrete-event simulation engine.

The engine is the substrate every other subsystem runs on: the wireless
medium, the 802.11 MAC, routing agents, traffic sources, and mobility all
schedule events against a single :class:`Simulator` instance.

Design notes
------------
* The pending-event queue is a plain ``heapq`` list of
  ``(time, priority, seq, event)`` tuples owned by the simulator.
  Ordering is decided entirely by the leading floats/ints — the
  monotonically increasing sequence number is unique, so tuple
  comparison never reaches the :class:`Event` object, and pop order is
  a pure function of the keys, never of the heap's internal layout.
* :class:`Event` is a ``__slots__`` class (no per-event ``__dict__``):
  events are the most-allocated object in a run.  Events never need to
  be comparable — the heap orders raw key tuples, so there is no
  ``__lt__`` to dispatch.
* Cancellation is *lazy*: :meth:`Event.cancel` marks the event and the
  run loop skips cancelled entries when they surface.  This keeps both
  ``schedule`` and ``cancel`` cheap.  A cached live-event counter keeps
  :attr:`Simulator.pending_events` O(1) instead of an O(n) queue scan.
  On top of that, the engine **compacts** the backlog (filters out the
  dead entries and re-heapifies) whenever more than half of a large
  backlog is cancelled — MAC-heavy runs cancel most of their timers, and
  compaction bounds the memory those corpses would otherwise hold until
  their original expiry.
* Event times must be finite: a NaN time compares false against
  everything (it would fire first and poison the clock) and an infinite
  one can never be reached, so both raise :class:`SimulationError`.
  A run horizon must not be NaN either (the loop would never reach it);
  ``until=inf`` means no horizon.
* Time is a float in **seconds** of simulated time.  MAC-level code deals
  in microseconds; helpers in :mod:`repro.net.mac.constants` convert.

Clock contract of :meth:`Simulator.run`
---------------------------------------
``now`` is clamped to ``until`` **only when the horizon is actually
reached** — the queue drained below ``until``, or the next event lies
beyond it.  When the run is cut short by ``max_events`` or
:meth:`Simulator.stop`, ``now`` stays at the last executed event so a
subsequent ``run()`` resumes mid-stream without skipping simulated time.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "call_later",
]

#: Compaction trigger: rebuild the heap once the backlog exceeds this
#: size *and* more than half of it is cancelled.  Small queues never pay
#: the O(n) rebuild; large churny ones amortize it against the >n/2 dead
#: entries removed.
COMPACT_MIN_BACKLOG = 512

#: Queue entry: the ordering key first, the event payload last.  The
#: tie-break is the schedule sequence number, which is unique, so the
#: heap never compares two events.
Entry = Tuple[float, int, int, "Event"]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and act as handles
    for cancellation.  They should not be constructed directly.
    """

    __slots__ = ("time", "priority", "seq", "callback", "name", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        name: str = "",
        _sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False
        self._sim = _sim

    def cancel(self) -> None:
        """Mark this event so it is skipped when it reaches the queue head."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._live -= 1
                sim._maybe_compact()

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event({self.name or self.callback!r} @ {self.time:.6f}s, {state})"


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Compaction rewrites the heap in place, so the run loop's local
        # alias stays valid when a callback's cancel triggers it.
        self._queue: List[Entry] = []
        self._compactions = 0
        self._seq = 0
        self._running = False
        self._processed = 0
        self._stopped = False
        self._live = 0  # non-cancelled events in the queue (O(1) pending count)

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (skipped cancellations excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still pending (cancelled ones excluded) — O(1)."""
        return self._live

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay fires after all events
        already scheduled for the current instant.  Lower ``priority`` values
        fire earlier among events at the same time.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority=priority, name=name)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if not self._now <= time < math.inf:
            self._reject_time(time, "cannot schedule")
        self._seq += 1
        event = Event(time, priority, self._seq, callback, name, _sim=self)
        heappush(self._queue, (time, priority, self._seq, event))
        self._live += 1
        return event

    def _reject_time(self, time: float, what: str) -> None:
        """Raise :class:`SimulationError` for a non-finite or past time."""
        if not math.isfinite(time):
            raise SimulationError(f"{what} at non-finite time {time!r}")
        raise SimulationError(f"{what} at {time:.9f} < now {self._now:.9f}")

    def _maybe_compact(self) -> None:
        """Cancelled-entry compaction: when more than half of a large
        backlog is dead, filter the corpses out and re-heapify in place.

        Triggered from :meth:`Event.cancel` — the only operation that can
        grow the dead fraction.  Purely count-driven, hence deterministic;
        live pop order is unaffected because keys are unique.  Each
        compaction removes more than half the backlog, so the O(n)
        rebuild amortizes to O(1) per cancellation."""
        queue = self._queue
        backlog = len(queue)
        if backlog > COMPACT_MIN_BACKLOG and (backlog - self._live) * 2 > backlog:
            queue[:] = [entry for entry in queue if not entry[3].cancelled]
            heapify(queue)
            self._compactions += 1

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event; ``None`` is accepted and ignored."""
        if event is not None:
            event.cancel()

    # ---------------------------------------------------------------- running
    def _head(self) -> Optional[Entry]:
        """The live head entry, discarding cancelled entries that surface."""
        queue = self._queue
        while queue:
            head = queue[0]
            if not head[3].cancelled:
                return head
            heappop(queue)
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue empties, ``until`` is reached, or ``max_events`` fire.

        ``until`` is inclusive: events scheduled exactly at ``until`` execute.

        Clock contract (see module docstring): after returning,

        * if the horizon was *reached* — the queue drained below ``until``
          or the next pending event lies beyond it — :attr:`now` equals
          ``until``;
        * if the run stopped early via ``max_events`` or :meth:`stop`,
          :attr:`now` stays at the time of the last executed event (events
          at that very instant may still be pending) so that calling
          :meth:`run` again resumes exactly where this run left off;
        * with no horizon, :attr:`now` is the time of the last executed
          event.
        """
        until = self._horizon(until)
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        queue = self._queue
        drained = False
        try:
            while not self._stopped:
                if not queue:
                    drained = True
                    break
                head = queue[0]
                event = head[3]
                if event.cancelled:
                    heappop(queue)
                    continue
                time = head[0]
                if until is not None and time > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                self._now = time
                event.cancelled = True  # consumed; handle can no longer cancel
                self._live -= 1
                event.callback()
                self._processed += 1
                executed += 1
            if drained:
                # Queue drained.  A drain *after* stop() still counts as an
                # interrupted run: leave the clock at the last executed event
                # so resumption scheduling stays relative to it.
                if until is not None and not self._stopped and self._now < until:
                    self._now = until
        finally:
            self._running = False

    @staticmethod
    def _horizon(until: Optional[float]) -> Optional[float]:
        """Validate a run horizon; ``inf`` is the same as none at all.

        ``time > nan`` is always False, so a NaN horizon would never stop
        the loop; ``-inf`` would clamp the clock to it."""
        if until is None or until == math.inf:
            return None
        if not math.isfinite(until):
            raise SimulationError(f"run horizon must be a number or inf, got {until!r}")
        return until

    def stop(self) -> None:
        """Stop the run loop after the current event finishes.

        The clock stays at the interrupting event's time; :meth:`run` may
        be called again to resume (see the clock contract above).
        """
        self._stopped = True

    # ------------------------------------------------------------- inspection
    def iter_pending(self) -> Iterator[Event]:
        """Yield pending events in an unspecified order (inspection only)."""
        return (entry[3] for entry in self._queue if not entry[3].cancelled)

    def scheduler_stats(self) -> Dict[str, int]:
        """Queue telemetry: ``backlog`` (live plus not yet collected
        cancelled entries), ``compactions``, ``pending`` (live only), and
        ``processed``."""
        return {
            "backlog": len(self._queue),
            "compactions": self._compactions,
            "pending": self._live,
            "processed": self._processed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}s, pending={self.pending_events})"


def call_later(
    sim: Simulator,
    delay: float,
    fn: Callable[..., Any],
    *args: Any,
    priority: int = 0,
    name: Optional[str] = None,
) -> Event:
    """Convenience wrapper binding ``*args`` into a scheduled call.

    ``priority`` and ``name`` pass through to :meth:`Simulator.schedule`
    (they were previously dropped, so helpers scheduled through this
    wrapper lost their intended same-instant ordering); ``name`` defaults
    to the callable's ``__name__``.
    """
    return sim.schedule(
        delay,
        lambda: fn(*args),
        priority=priority,
        name=name if name is not None else getattr(fn, "__name__", ""),
    )
