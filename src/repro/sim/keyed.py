"""Causally-keyed simulator — the engine variant behind sharded execution.

The sharded runtime (:mod:`repro.sim.shard`) runs one engine per spatial
shard and merges their traces back into the single-engine order.  That
merge is only possible if every event (and every trace emission) carries
a key that *any* shard can compute identically and that sorts exactly
like the single engine's ``(time, priority, seq)`` tie-break.  The plain
sequence number cannot be that key: it counts *all* schedules in one
process, so two shards that each execute a subset of the events would
disagree about it.

Causal keys
-----------
:class:`KeyedSimulator` replaces the sequence number with a **causal
key**::

    key  = (time, priority, ckey)
    ckey = (0, build_index)                      # scheduled before any event ran
    ckey = (1, parent_key, scope_tag, k)         # scheduled while an event ran

``build_index`` is the global schedule count during the build phase
(every shard replays the identical build, so the count matches
everywhere).  At runtime, ``parent_key`` is the full key of the
currently executing event, ``scope_tag`` names a sub-scope within that
event (the medium tags each receiver's ``on_tx_end`` with its node id so
per-receiver work keys independently of which receivers a shard owns),
and ``k`` is the schedule count within that scope.

*Ordering theorem.*  In the single engine, events tie-break by ``seq``
— i.e. by schedule order.  Schedule order is: all build-phase schedules
first (in build order), then schedules grouped by the executing parent
event (parents execute in key order), within a parent by scope (scopes
are entered in a deterministic order), within a scope by call index.
That is precisely the lexicographic order of ``ckey`` above, so sorting
by ``(time, priority, ckey)`` reproduces the single-engine pop order —
and Python's nested-tuple comparison implements it directly.  The two
``ckey`` shapes never compare beyond their first element (0 sorts before
1), and two runtime keys recurse into parent keys, which is well-founded
because parents strictly precede children in execution order.

Trace-record keys follow the same scheme with an independent per-scope
emission counter, so a k-way merge of per-shard record streams by record
key reproduces the single-engine emission order byte for byte.

Suppression
-----------
A shard replays the *entire* build (placement, RNG forks, routers,
sources) so that build counters and RNG streams stay bit-identical, but
must keep non-owned nodes dormant.  :meth:`suppress` runs code with
every ``schedule`` call still *drawing* its key and sequence number
(parity with the single engine) while the event is born dead — it is
never pushed, so dormant nodes consume no runtime.

Promise bookkeeping
-------------------
The conservative window protocol needs, per shard, a lower bound on the
earliest future transmission ("promise").  The keyed engine maintains:

* ``_tx_watch`` — pending MAC events that transmit *at their own fire
  time* (``mac.difs`` / ``mac.slot`` / ``mac.sifs_resp`` /
  ``mac.sifs_data``); their exact keys bound imminent transmissions.
* per-actor indexes of pending events — any other event at node
  ``n`` can create a transmission no earlier than ``SIFS`` after it
  fires, so ``min_pending(n) + SIFS`` bounds everything else.  Events
  tagged :data:`~repro.sim.engine.PURE_ACTOR` (mobility rolls, table
  purges) never transmit and are skipped; :data:`~repro.sim.engine.
  MEDIUM_ACTOR` events (``phy.tx_end`` fan-outs touching many nodes)
  are tracked by the shard worker's in-flight list instead.

Queue
-----
The keyed engine shares the plain engine's heap, with entries
``(time, priority, ckey, event)``.  The promise indexes are plain
per-actor append lists: scheduling costs one heap push plus one list
append, and the promise scan pays an O(live) sweep per actor — a fine
trade because promise rounds are rare (a handful per run) while
schedules number in the millions.

Actor attribution is mostly **inherited**: an event scheduled while node
``n``'s code runs (the executing event's actor is ``n``, or the medium
entered receiver scope ``(n,)``) is ``n``'s event.  Only build-phase
schedules and the medium need explicit tags.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.engine import (
    MEDIUM_ACTOR,
    PURE_ACTOR,
    Event,
    SimulationError,
    Simulator,
)

__all__ = ["KeyedSimulator", "TX_EVENT_NAMES", "CausalKey", "key_cmp", "key_min"]

#: Event names whose execution calls ``phy.transmit`` directly (the only
#: four sites in the MAC that do — see ``repro.net.mac.dcf``).  Every
#: other path to a transmission first schedules one of these at least
#: SIFS in the future.
TX_EVENT_NAMES = frozenset({"mac.difs", "mac.slot", "mac.sifs_resp", "mac.sifs_data"})

CausalKey = Tuple[float, int, tuple]


def key_cmp(a, b) -> int:
    """Compare two causal keys without recursion: -1, 0, or 1.

    Exactly Python's tuple comparison semantics (the order every proof
    in this module is stated in), computed with an explicit stack.  The
    native comparison recurses one C frame per chain link, and causal
    chains grow without bound over a run — periodic timers and MAC slot
    ladders on the shared 802.11 slot grid produce *time-locked* chains
    in different shards whose comparison only resolves at the root, so
    a long run overflows the interpreter recursion limit precisely on
    the coordination comparisons (horizon checks, promise mins, record
    merges) that put two different shards' deep keys side by side.
    Every such cross-chain comparison site routes through here; the
    scheduler's internal pushes keep native comparisons, where one
    operand is local and ties resolve shallowly.
    """
    if a is b:
        return 0
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        x_tuple = type(x) is tuple
        if x_tuple and type(y) is tuple:
            nx, ny = len(x), len(y)
            if nx != ny:
                # Lexicographic: common prefix decides first, then the
                # length tiebreak (pushed deepest so it compares last).
                stack.append((nx, ny))
                n = nx if nx < ny else ny
            else:
                n = nx
            for i in range(n - 1, -1, -1):
                stack.append((x[i], y[i]))
            continue
        if x_tuple or type(y) is tuple:
            raise TypeError(
                f"malformed causal key: tuple compared against "
                f"{type(y if x_tuple else x).__name__}"
            )
        if x == y:
            continue
        return -1 if x < y else 1
    return 0


def key_min(keys) -> Optional[CausalKey]:
    """Minimum of an iterable of causal keys under :func:`key_cmp`."""
    best = None
    for key in keys:
        if best is None or key_cmp(key, best) < 0:
            best = key
    return best


class KeyedSimulator(Simulator):
    """Drop-in :class:`Simulator` whose tie-break is the causal key.

    Pop order is identical to the plain engine (the ordering theorem in
    the module docstring); what changes is that the tie-break is
    computable by any shard that executes a subset of the events.  The
    inherited heap orders entries by the *full* ``(time, priority,
    ckey)`` tuple, and keys are unique, so pop order never depends on
    the heap's layout.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        super().__init__(start_time)
        self._build_count = 0
        self._build_emit_count = 0
        self._exec_key: Optional[CausalKey] = None
        self._exec_actor: Optional[int] = None
        self._scope_actor: Optional[int] = None
        self._scope_tag: tuple = ()
        self._scope_count = 0
        self._emit_count = 0
        self._suppress_depth = 0
        # Promise bookkeeping: append-only lists of Events, pruned of
        # consumed/cancelled entries when scanned.
        self._tx_watch: List[Event] = []
        self._actor_index: Dict[int, List[Event]] = {}
        self._untracked_index: List[Event] = []

    # ------------------------------------------------------------- scheduling
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
        actor: Optional[int] = None,
    ) -> Event:
        if not self._now <= time < math.inf:
            self._reject_time(time, "cannot schedule")
        self._seq += 1
        parent = self._exec_key
        if parent is None:
            self._build_count += 1
            ckey: tuple = (0, self._build_count)
        else:
            ckey = (1, parent, self._scope_tag, self._scope_count)
            self._scope_count += 1
        event = Event(time, priority, self._seq, callback, name, _sim=self)
        event.key = (time, priority, ckey)
        if actor is None:
            # Inherit attribution: an explicit scope actor wins (the
            # sender scope's tag is a key namespace, not a node id),
            # receiver scopes are tagged with the receiving node id,
            # and otherwise the event belongs to whoever is executing.
            if self._scope_actor is not None:
                actor = self._scope_actor
            elif len(self._scope_tag) == 1 and self._scope_tag[0] >= 0:
                actor = self._scope_tag[0]
            else:
                actor = self._exec_actor
        event.actor = actor
        if self._suppress_depth:
            # Key/seq/RNG parity without execution: the event is born
            # consumed, so it is never pushed and ``cancel()`` on the
            # returned handle is a no-op.
            event.cancelled = True
            return event
        heappush(self._queue, (time, priority, ckey, event))
        self._live += 1
        if name in TX_EVENT_NAMES:
            self._tx_watch.append(event)
        if actor is None:
            self._untracked_index.append(event)
        elif actor >= 0:
            index = self._actor_index.get(actor)
            if index is None:
                index = self._actor_index[actor] = []
            index.append(event)
        return event

    @contextmanager
    def suppress(self) -> Iterator[None]:
        """Run code with every schedule drawing its key but staying dead."""
        self._suppress_depth += 1
        try:
            yield
        finally:
            self._suppress_depth -= 1

    def key_scope(self, tag: tuple, actor: Optional[int] = None) -> "_KeyScope":
        """Enter a named sub-scope of the executing event.

        Schedule and emission counters restart inside the scope, so the
        keys drawn within it do not depend on how many sibling scopes
        ran before it — the property that lets a shard execute only the
        receiver scopes it owns and still draw single-engine keys.

        ``actor`` overrides attribution for events scheduled inside the
        scope without changing keys — the sender scope's tag ``(-1,)``
        is a key namespace, not a node id, so the medium passes the real
        sender so its post-transmission contention stays visible to the
        promise scan.

        Hand-rolled context manager: scopes open for every reception of
        every frame, and the ``contextlib`` generator protocol costs
        several times the scope body at that call rate.
        """
        return _KeyScope(self, tag, actor)

    # ------------------------------------------------------------ record keys
    def record_key(self) -> tuple:
        """Draw the causal key for a trace record emitted right now.

        Must be called exactly once per captured record (the shard
        worker's catch-all subscriber does), in emission order.
        """
        if self._exec_key is None:
            self._build_emit_count += 1
            return (0, self._build_emit_count)
        key = (1, self._exec_key, self._scope_tag, self._emit_count)
        self._emit_count += 1
        return key

    # ------------------------------------------------------- stepped execution
    def peek_key(self) -> Optional[CausalKey]:
        """Key of the next live event, or ``None`` when drained."""
        head = self._head()
        if head is None:
            return None
        return (head[0], head[1], head[2])

    def execute_next(self) -> bool:
        """Execute exactly one event; ``False`` when the queue is drained."""
        head = self._head()
        if head is None:
            return False
        heappop(self._queue)
        event: Event = head[3]
        self._now = event.time
        event.cancelled = True  # consumed; handle can no longer cancel
        self._live -= 1
        self._exec_key = event.key
        self._exec_actor = event.actor
        self._scope_actor = None
        self._scope_tag = ()
        self._scope_count = 0
        self._emit_count = 0
        try:
            event.callback()
        finally:
            self._exec_key = None
            self._exec_actor = None
        self._processed += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Single-process run honouring the plain engine's clock contract.

        Used by the keyed-vs-plain equivalence tests; the sharded driver
        steps via :meth:`execute_next` instead.
        """
        until = self._horizon(until)
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        drained = False
        try:
            while not self._stopped:
                head = self._head()
                if head is None:
                    drained = True
                    break
                if until is not None and head[0] > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                self.execute_next()
                executed += 1
            if drained:
                if until is not None and not self._stopped and self._now < until:
                    self._now = until
        finally:
            self._running = False

    # ------------------------------------------------------------ ghost events
    def insert_ghost(
        self, key: CausalKey, callback: Callable[[], None], name: str, actor: int = MEDIUM_ACTOR
    ) -> Event:
        """Insert an event at a key computed by *another* shard.

        The conservative window protocol guarantees the owner shard only
        ships keys at or beyond every peer's executed horizon; a ghost
        landing in our past would silently corrupt the trace, so it is a
        hard error instead.
        """
        time, priority, ckey = key
        if not self._now <= time < math.inf:
            if not math.isfinite(time):
                self._reject_time(time, f"ghost event {name!r}")
            raise SimulationError(
                f"ghost event {name!r} at {time:.9f} is before now {self._now:.9f}; "
                "the shard window protocol has been violated"
            )
        self._seq += 1
        event = Event(time, priority, self._seq, callback, name, _sim=self)
        event.key = key
        event.actor = actor
        heappush(self._queue, (time, priority, ckey, event))
        self._live += 1
        return event

    # ------------------------------------------------------- promise scanning
    def tx_sentinel_floor(
        self, relevant: Callable[[Optional[int]], bool]
    ) -> Optional[CausalKey]:
        """Min key over pending transmit-site events whose actor matters.

        ``relevant`` receives the event's actor id; the watch list is
        pruned of consumed/cancelled entries as a side effect.
        """
        best: Optional[CausalKey] = None
        keep: List[Event] = []
        for ev in self._tx_watch:
            if ev.cancelled:
                continue
            keep.append(ev)
            if relevant(ev.actor):
                key = ev.key
                # key_cmp: two watched transmit sites can ride
                # time-locked slot ladders whose native comparison
                # walks to the chain roots.
                if best is None or key_cmp(key, best) < 0:
                    best = key
        self._tx_watch = keep
        return best

    @staticmethod
    def _sweep_min_time(index: List[Event]) -> Optional[float]:
        """Min fire time over a promise index, compacting dead entries."""
        best: Optional[float] = None
        keep: List[Event] = []
        append = keep.append
        for ev in index:
            if ev.cancelled:
                continue
            append(ev)
            time = ev.time
            if best is None or time < best:
                best = time
        if len(keep) != len(index):
            index[:] = keep
        return best

    def actor_next_time(self, actor: int) -> Optional[float]:
        """Earliest pending event time attributed to ``actor``.

        Sweeps (and compacts) the actor's append list.  Promise scans are
        rare enough that the O(live) sweep is cheaper than having paid
        a heap push on every schedule.
        """
        index = self._actor_index.get(actor)
        if not index:
            return None
        return self._sweep_min_time(index)

    def untracked_next_time(self) -> Optional[float]:
        """Earliest pending event with no actor attribution."""
        return self._sweep_min_time(self._untracked_index)

    # The plain run() path never sees KeyedSimulator entries, but keep
    # repr honest for debugging.
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeyedSimulator(now={self._now:.6f}s, pending={self.pending_events}, "
            f"build={self._build_count})"
        )



class _KeyScope:
    """Reentrant-by-instance scope guard for :meth:`KeyedSimulator.key_scope`."""

    __slots__ = ("_sim", "_tag", "_actor", "_saved")

    def __init__(
        self, sim: KeyedSimulator, tag: tuple, actor: Optional[int]
    ) -> None:
        self._sim = sim
        self._tag = tag
        self._actor = actor

    def __enter__(self) -> None:
        sim = self._sim
        self._saved = (
            sim._scope_tag,
            sim._scope_count,
            sim._emit_count,
            sim._scope_actor,
        )
        sim._scope_tag = self._tag
        sim._scope_count = 0
        sim._emit_count = 0
        if self._actor is not None:
            sim._scope_actor = self._actor

    def __exit__(self, *exc) -> None:
        sim = self._sim
        (
            sim._scope_tag,
            sim._scope_count,
            sim._emit_count,
            sim._scope_actor,
        ) = self._saved
