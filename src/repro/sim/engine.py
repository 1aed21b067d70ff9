"""Discrete-event simulation engine.

The engine is the substrate every other subsystem runs on: the wireless
medium, the 802.11 MAC, routing agents, traffic sources, and mobility all
schedule events against a single :class:`Simulator` instance.

Design notes
------------
* The pending-event queue is a pluggable **scheduler backend** (see
  :mod:`repro.sim.timerwheel`), selected by ``scheduler_mode``:

  - ``"heap"``  — a ``heapq`` of ``(time, priority, seq, event)`` tuples.
    Ordering is decided entirely by the leading floats/ints — the
    monotonically increasing sequence number is unique, so tuple
    comparison never reaches the :class:`Event` object.
  - ``"wheel"`` — a two-level hierarchical timer wheel (near buckets at
    MAC-slot granularity + far-future overflow heap): O(1) scheduling
    into the near window and pops that cost bucket occupancy instead of
    log(total backlog).  Pop order — and therefore every trace byte —
    is identical to the heap by construction.
  - ``"cross"`` — both backends in lockstep, comparing
    ``(time, priority, seq)`` and event identity on every pop and
    raising :class:`SchedulerCoherenceError` on divergence: the
    per-pop equivalence proof.

* :class:`Event` is a ``__slots__`` class (no per-event ``__dict__``):
  events are the most-allocated object in a run.  Events never need to
  be comparable — every backend orders raw key tuples, so there is no
  ``__lt__`` to dispatch (the once-vestigial implementation is gone).
* Cancellation is *lazy*: :meth:`Event.cancel` marks the event and the
  backend skips cancelled entries when they surface.  This keeps both
  ``schedule`` and ``cancel`` cheap.  A cached live-event counter keeps
  :attr:`Simulator.pending_events` O(1) instead of an O(n) queue scan.
  On top of that, the engine **compacts** the backlog (rebuilds the
  backend without dead entries) whenever more than half of a large
  backlog is cancelled — MAC-heavy runs cancel most of their timers, and
  compaction bounds the memory those corpses would otherwise hold until
  their original expiry.
* Time is a float in **seconds** of simulated time.  MAC-level code deals
  in microseconds; helpers in :mod:`repro.net.mac.constants` convert.

Clock contract of :meth:`Simulator.run`
---------------------------------------
``now`` is clamped to ``until`` **only when the horizon is actually
reached** — the queue drained below ``until``, or the next event lies
beyond it.  When the run is cut short by ``max_events`` or
:meth:`Simulator.stop`, ``now`` stays at the last executed event so a
subsequent ``run()`` resumes mid-stream without skipping simulated time.
The contract holds identically under every scheduler backend (tested
parametrized over all modes).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional

from repro.sim.timerwheel import (
    SCHEDULER_MODES,
    SchedulerCoherenceError,
    make_scheduler,
    validate_scheduler_mode,
)

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "SchedulerCoherenceError",
    "SCHEDULER_MODES",
    "call_later",
    "PURE_ACTOR",
    "MEDIUM_ACTOR",
]

#: Compaction trigger: rebuild the backend once the backlog exceeds this
#: size *and* more than half of it is cancelled.  Small queues never pay
#: the O(n) rebuild; large churny ones amortize it against the >n/2 dead
#: entries removed.
COMPACT_MIN_BACKLOG = 512

#: Actor tag for events that provably never lead to a transmission
#: (mobility waypoint rolls, routing-table purge ticks).  The sharded
#: runtime's promise computation skips them entirely.
PURE_ACTOR = -2

#: Actor tag for medium ``phy.tx_end`` events, which run receiver-side
#: code at *many* nodes.  The sharded runtime tracks these through its
#: in-flight transmission list instead of the per-actor index.
MEDIUM_ACTOR = -3


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and act as handles
    for cancellation.  They should not be constructed directly.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "name", "cancelled", "_sim",
        # Sharded execution (repro.sim.keyed / repro.sim.shard): the causal
        # sort key and the acting node.  Plain Simulator never assigns or
        # reads them (unset slots cost nothing); KeyedSimulator sets both.
        "key", "actor",
    )

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

    ``scheduler_mode`` selects the queue backend (``"heap"``,
    ``"wheel"``, or ``"cross"``); outcomes and traces are byte-identical
    in every mode.  A bare ``Simulator()`` uses ``"heap"``, but scenarios
    run on ``"wheel"``: that is the ``ScenarioConfig.scheduler_mode``
    default.  ``wheel_resolution`` /
    ``wheel_slots`` tune the near wheel (defaults: 802.11 slot time x
    1024 buckets ~= 20.5 ms horizon).

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0]
    """

    def __init__(
        self,
        start_time: float = 0.0,
        scheduler_mode: str = "heap",
        wheel_resolution: Optional[float] = None,
        wheel_slots: Optional[int] = None,
    ) -> None:
        self._now = float(start_time)
        validate_scheduler_mode(scheduler_mode)
        kwargs: Dict[str, Any] = {}
        if wheel_resolution is not None:
            kwargs["resolution"] = wheel_resolution
        if wheel_slots is not None:
            kwargs["slots"] = wheel_slots
        self._sched = make_scheduler(scheduler_mode, self._now, **kwargs)
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
    def scheduler_mode(self) -> str:
        """The active scheduler backend (``heap`` | ``wheel`` | ``cross``)."""
        return self._sched.mode

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
        actor: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay fires after all events
        already scheduled for the current instant.  Lower ``priority`` values
        fire earlier among events at the same time.

        ``actor`` attributes the event to a node for the sharded runtime's
        conservative-lookahead bookkeeping (see :mod:`repro.sim.keyed`);
        the plain simulator accepts and ignores it so call sites stay
        backend-agnostic.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(
            self._now + delay, callback, priority=priority, name=name, actor=actor
        )

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
        actor: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.9f} < now {self._now:.9f}"
            )
        self._seq += 1
        event = Event(time, priority, self._seq, callback, name, _sim=self)
        self._sched.push((time, priority, self._seq, event))
        self._live += 1
        return event

    def _maybe_compact(self) -> None:
        """Cancelled-entry compaction: when more than half of a large
        backlog is dead, rebuild the backend without the corpses.

        Triggered from :meth:`Event.cancel` — the only operation that can
        grow the dead fraction.  Purely count-driven, hence deterministic;
        live pop order is unaffected.  Each compaction removes more than
        half the backlog, so the O(n) rebuild amortizes to O(1) per
        cancellation."""
        backlog = len(self._sched)
        if backlog > COMPACT_MIN_BACKLOG and (backlog - self._live) * 2 > backlog:
            self._sched.compact()

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event; ``None`` is accepted and ignored."""
        if event is not None:
            event.cancel()

    # ---------------------------------------------------------------- running
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
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        sched = self._sched
        drained = False
        try:
            while not self._stopped:
                head = sched.peek()
                if head is None:
                    drained = True
                    break
                time = head[0]
                if until is not None and time > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                sched.pop()
                event = head[3]
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

    def stop(self) -> None:
        """Stop the run loop after the current event finishes.

        The clock stays at the interrupting event's time; :meth:`run` may
        be called again to resume (see the clock contract above).
        """
        self._stopped = True

    # ------------------------------------------------------------- inspection
    def iter_pending(self) -> Iterator[Event]:
        """Yield pending events in an unspecified order (inspection only)."""
        return self._sched.iter_events()

    def scheduler_stats(self) -> Dict[str, int]:
        """Backend telemetry: backlog (live + dead), compactions, and —
        for the wheel — ready/wheel/overflow occupancy and re-bases."""
        stats = dict(self._sched.stats())
        stats["pending"] = self._live
        stats["processed"] = self._processed
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6f}s, pending={self.pending_events}, "
            f"scheduler={self.scheduler_mode})"
        )


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
