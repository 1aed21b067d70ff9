"""One shard: a full scenario replica executing only its owned slice.

A :class:`ShardWorker` builds the *entire* scenario (placement, RNG
forks, mobility, routers, sources — bit-identical to the single engine
and to every sibling shard) on a :class:`~repro.sim.keyed.KeyedSimulator`
and then keeps only its *owned* nodes live: non-owned nodes' routers and
sources are started under :meth:`~repro.sim.keyed.KeyedSimulator.
suppress`, so their start events draw identical keys but are born dead.
Mobility waypoint rolls and table-purge ticks (tagged
:data:`~repro.sim.engine.PURE_ACTOR`) run for *every* node in every
shard — they touch no channel state and keep the dormant replicas'
positions exact, which is what lets each shard compute every other
shard's interest interval locally, with zero coordination.

Ownership is the node's **home column** at t=0 (static assignment keeps
the map globally computable); responsibility for the node never migrates
even as it roams, because its shard replays its full causal history.

The conservative window protocol (driven by :mod:`repro.sim.shard.
driver`) runs rounds that execute a window and then re-promise; this
module implements the worker half: promise computation (see
:meth:`ShardWorker.promise`), bounded execution, and ghost mirroring
via :class:`ShardBridge`.

Lookahead
---------
Radio propagation in the unit-disk medium is instantaneous, so the
usable lookahead is the MAC's interframe structure: the only four call
sites of ``phy.transmit`` are the ``mac.difs`` / ``mac.slot`` /
``mac.sifs_resp`` / ``mac.sifs_data`` event callbacks
(:data:`~repro.sim.keyed.TX_EVENT_NAMES`), and every path that *creates*
one of those schedules it at least SIFS (10 us) ahead (DIFS and slot
gaps are larger).  Hence a shard can promise, exactly:

* the full causal key of each pending transmit-site event (the
  transmission happens *at* that key), and
* ``t + SIFS`` for every other pending event at time ``t`` attributable
  to a node that could matter, including the ``end + SIFS`` of every
  in-flight (local or ghost) transmission, whose completion can trigger
  a SIFS-spaced CTS/ACK response.

Promises are *distance-scaled*: a node inside a (drift-widened) foreign
interest interval is *exposed* and contributes the exact keys above, but
an interior node is not skipped outright — its frame can trigger a
SIFS response or a forward by a node nearer the border, cascading
outward.  Influence travels at most one interference radius per
transmission and each hop costs at least one minimum frame airtime plus
SIFS, so an actor at distance ``d`` from the nearest foreign interval
contributes ``t + ceil(d / hop_range) * (min_airtime + SIFS)`` — distant
shards throttle each other only on the radio-propagation timescale of
the traffic between them.
"""

from __future__ import annotations

import itertools
import math
import time as _wall
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.net.packet as _packet_mod
from repro.geo.partition import ColumnPartition, Interval
from repro.net.mac.frames import MacFrame
from repro.sim.keyed import CausalKey, KeyedSimulator, key_cmp
from repro.sim.trace import TraceRecord

__all__ = [
    "GhostTx",
    "ShardBridge",
    "ShardResult",
    "ShardWorker",
    "SlimRecord",
    "UID_STRIDE",
    "W_MAX",
    "worker_config",
]

#: Horizon cushion: no window extends more than this many simulated
#: seconds past the globally earliest pending event.  Bounds how stale
#: the drift-padded interest intervals can get (the pad covers
#: ``2 * vmax * W_MAX`` of movement) and guarantees progress even when
#: every shard's promise is infinite.
W_MAX = 0.05

#: Extra interest-interval padding (metres) on top of interference range
#: and worst-case drift — absorbs float slop in position interpolation.
_PAD_SLACK = 1.0

#: Packet-uid spacing between shards: each shard draws uids from its own
#: ``count(1 + shard_index * UID_STRIDE)`` so uids created in different
#: shards never collide (uids ride ghost frames across shards, and the
#: merged delivery collector matches ``app.send``/``app.recv`` on them).
UID_STRIDE = 10**12

#: Sorts below every real causal key at the same time (real priorities
#: are small ints); used to build "no event before time t" floor keys.
_FLOOR = -(2**60)

#: Sorts above every real priority: ``(until, _CEIL)`` admits every real
#: key with time <= until (the run horizon is inclusive).
_CEIL = 2**60

#: A key no real event ever reaches ("infinite" promise).
INF_KEY: CausalKey = (float("inf"), _CEIL, ())


@dataclass(frozen=True)
class GhostTx:
    """A cross-shard transmission announcement.

    Shipped by the owner shard at the window barrier; the receiving
    shard mirrors it as two ghost events: fan-out at ``start_key`` (the
    epsilon-successor of the transmitting MAC event's key — after the
    transmit event itself, before any of its same-instant children) and
    completion at ``finish_key`` (the owner's ``phy.tx_end`` key,
    verbatim, so receiver-side responses draw single-engine keys).
    """

    src_shard: int
    targets: Tuple[int, ...]
    sender_id: int
    x: float
    y: float
    frame: MacFrame
    start: float
    end: float
    start_key: CausalKey
    finish_key: CausalKey
    #: Earliest causal-influence time at the receiver: the mirrored
    #: completion fires at ``end`` and the fastest reply is SIFS-spaced.
    #: The coordinator uses this to compensate a promise computed
    #: before the ghost was delivered (see the driver).
    resume: float = float("inf")


@dataclass(frozen=True)
class SlimRecord:
    """A trace record reduced to what the merge needs (picklable)."""

    key: tuple
    time: float
    category: str
    node: Optional[int]
    packet_uid: Optional[int] = None
    packet_kind: Optional[str] = None
    packet_size: Optional[int] = None


@dataclass
class ShardResult:
    """Everything one worker contributes to the merged result."""

    shard_index: int
    records: List[SlimRecord]
    router_stats: Dict[int, Dict[str, int]]
    collisions: int
    frames_sent: int
    fault_counters: Dict[str, float]
    processed_events: int = 0


class ShardBridge:
    """The medium's hook into the shard runtime.

    :meth:`note_local_tx` is called by :meth:`RadioMedium.transmit` for
    every local transmission; the bridge decides which foreign shards
    the footprint can reach (their drift-padded interest intervals
    contain the sender) and queues a :class:`GhostTx` for the barrier.
    It also keeps the in-flight completion list the promise scan uses.
    """

    def __init__(self, worker: "ShardWorker") -> None:
        self._worker = worker
        self.outgoing: List[GhostTx] = []

    def note_local_tx(self, tx, frame, affected, finish_event) -> None:
        worker = self._worker
        worker.inflight.append((finish_event, tx.sender_pos.x))
        exec_key = worker.sim._exec_key
        assert exec_key is not None, "transmission outside event execution"
        targets = tuple(
            s
            for s, interval in enumerate(worker.current_intervals)
            if s != worker.shard_index
            and ColumnPartition.in_interval(tx.sender_pos.x, interval)
        )
        if not targets:
            return
        time_, priority, ckey = exec_key
        self.outgoing.append(
            GhostTx(
                src_shard=worker.shard_index,
                targets=targets,
                sender_id=tx.sender_id,
                x=tx.sender_pos.x,
                y=tx.sender_pos.y,
                frame=frame,
                start=tx.start,
                end=tx.end,
                start_key=(time_, priority, ckey + (2,)),
                finish_key=finish_event.key,
                resume=tx.end + worker.sifs,
            )
        )
        # A cross-border transmission caps the rest of this window: the
        # foreign side will only see the ghost at the next barrier, and
        # its earliest possible reply (a SIFS-spaced response to the
        # mirrored completion) lands at end + SIFS — this shard must not
        # execute past that point until the reply round has happened.
        # From the next round on the foreign promise itself (which
        # counts mirrored in-flight completions) holds the line.
        barrier = (tx.end + worker.sifs, _FLOOR, ())
        if worker.window_barrier is None or barrier < worker.window_barrier:
            worker.window_barrier = barrier


def worker_config(config):
    """The scenario config a shard worker actually builds.

    * ``shard_mode="off"`` — workers step their engine directly; the
      config must not re-dispatch into the sharded driver.
    * No retention, no sniffer: the worker ships records itself.
    """
    return replace(config, shard_mode="off", keep_trace=False, with_sniffer=False)


class ShardWorker:
    """One shard of a sharded run (usable inline or in a worker process)."""

    def __init__(
        self, config, shard_index: int, capture_all: bool, plane=None
    ) -> None:
        # Import here: repro.experiments.scenario imports this package's
        # __init__ for mode validation, so a module-level import back
        # into it would be circular.
        from repro.experiments.scenario import Scenario

        self.config = config
        self.shard_index = shard_index
        self.shards = config.shards
        self.capture_all = capture_all
        self.sifs = 10e-6  # overwritten from the built nodes' params below

        #: Per-shard packet-uid counter (disjoint ranges across shards).
        self._uid_counter = itertools.count(1 + shard_index * UID_STRIDE)
        with self._uid_scope():
            self.sim = KeyedSimulator()
            self.scenario = Scenario(worker_config(config), sim=self.sim)
        nodes = self.scenario.nodes
        if nodes:
            self.sifs = nodes[0].mac.params.sifs

        # Static home-column ownership from the (replicated, identical)
        # t=0 placement.  Every shard computes the same map; explicit
        # (possibly load-rebalanced) boundaries override equal widths.
        self.partition = ColumnPartition(
            0.0,
            config.width,
            self.shards,
            boundaries=getattr(config, "shard_boundaries", None),
        )
        self.owned_by: List[FrozenSet[int]] = [frozenset() for _ in range(self.shards)]
        assign: List[set] = [set() for _ in range(self.shards)]
        for node in nodes:
            column = self.partition.column_of(node.mobility.position_at(0.0).x)
            assign[column].add(node.node_id)
        self.owned_by = [frozenset(s) for s in assign]
        self.owned: FrozenSet[int] = self.owned_by[shard_index]

        vmax = 0.0 if config.static else config.max_speed
        self._pad = config.interference_range + 2.0 * vmax * W_MAX + _PAD_SLACK
        #: Exposure tests widen foreign intervals by the *sender's* own
        #: possible drift over one window: a node just outside a foreign
        #: interval could cross into it before it transmits, and its
        #: promise must already have covered that transmission (the ghost
        #: past-key guard makes any miss a hard error, not a silent
        #: divergence).
        self._own_drift = vmax * W_MAX + 0.5 * _PAD_SLACK
        #: Cascade-floor geometry: one transmission moves channel
        #: influence at most one interference radius (plus drift), and
        #: triggering the *next* transmission in a chain costs at least
        #: the shortest possible frame airtime plus SIFS (responses and
        #: forwards fire off ``phy.tx_end``, never off a tx start).
        params = (
            self.scenario.nodes[0].mac.params
            if self.scenario.nodes
            else None
        )
        if params is not None:
            min_airtime = min(
                params.control_duration(params.ack_bytes),
                params.control_duration(params.cts_bytes),
                params.control_duration(params.rts_bytes),
                params.data_duration(0),
                params.data_duration(0, broadcast=True),
            )
        else:  # pragma: no cover - degenerate empty scenario
            min_airtime = 0.0
        self._hop_cost = min_airtime + self.sifs if params else self.sifs
        self._hop_range = (
            config.interference_range + 2.0 * vmax * W_MAX + _PAD_SLACK
        )
        self.current_intervals: List[Interval] = [None] * self.shards

        #: Scripted teleports break the bounded-drift assumption the
        #: interval pad and distance-scaled floors rest on, so they get
        #: worst-case treatment: a teleporting node is permanently
        #: *exposed* (its promise floors never take distance credit) and
        #: its owner's interest interval always covers every scripted
        #: destination, so transmissions near a future landing spot are
        #: mirrored even before the jump happens.
        self._teleport_nodes: FrozenSet[int] = frozenset(
            entry[1] for entry in config.teleports
        )
        self._teleport_xs: List[List[float]] = [[] for _ in range(self.shards)]
        for entry in config.teleports:
            owner = self.partition.column_of(
                nodes[entry[1]].mobility.position_at(0.0).x
            )
            self._teleport_xs[owner].append(entry[2])

        #: Vectorized promise geometry.  The promise round evaluates
        #: every replica's position (interest intervals span *all*
        #: shards' nodes) once per round; the scalar loop is O(nodes)
        #: interpreter round trips and dominated sharded wallclock.  The
        #: medium's array index already maintains batch leg kernels for
        #: exactly these mobility models, and its ``positions_at`` is
        #: bitwise-equal to scalar ``position_at``, so min/max folds and
        #: distance floors computed on the arrays match the scalar path
        #: IEEE-op for IEEE-op.  Falls back to the scalar loops when the
        #: medium runs without an index (``reference=True``).
        self._aindex = self.scenario.medium._aindex
        self._shard_rows: Optional[List] = None
        if self._aindex is not None:
            row_by_node = self._aindex._row_by_node
            if all(n.node_id in row_by_node for n in nodes):
                self._shard_rows = [
                    np.fromiter(
                        (row_by_node[nid] for nid in sorted(owned)),
                        dtype=np.intp,
                        count=len(owned),
                    )
                    if owned
                    else None
                    for owned in self.owned_by
                ]
                self._own_sorted: List[int] = sorted(self.owned)
                self._own_rows = self._shard_rows[shard_index]
                self._own_teleport = np.fromiter(
                    (nid in self._teleport_nodes for nid in self._own_sorted),
                    dtype=bool,
                    count=len(self._own_sorted),
                )

        #: Shared-memory position plane (optional).  Publication needs
        #: the array backend; a worker without it never publishes or
        #: compresses, and since compression is a per-producer decision
        #: (the coordinator only resolves ghosts that arrive as NaN),
        #: mixed-capability runs stay correct without negotiation.
        self.plane = plane
        self.plane_epoch = 0
        self._plane_ids = None
        if (
            plane is not None
            and self._shard_rows is not None
            and self._own_rows is not None
            and all(nid < plane.num_nodes for nid in self._own_sorted)
        ):
            self._plane_ids = np.fromiter(
                self._own_sorted, dtype=np.intp, count=len(self._own_sorted)
            )

        #: Pending completion events of in-flight transmissions — local
        #: ``phy.tx_end`` and mirrored ghost finishes — paired with the
        #: transmitter's x position, so the promise scan can grant the
        #: hop-chain lookahead to completions far from every border.
        #: Lazily pruned (executed events read as cancelled).
        self.inflight: List = []
        #: Set by the bridge when a window emits a cross-border ghost:
        #: the window must not run past the earliest possible foreign
        #: reply to it (see :meth:`ShardBridge.note_local_tx`).
        self.window_barrier: Optional[CausalKey] = None
        self.bridge = ShardBridge(self)
        self.scenario.medium.set_shard_context(self.sim, self.owned, self.bridge)
        injector = self.scenario.fault_injector
        if injector is not None:
            injector.scope_guard = self._fault_scope
        self.records: List[SlimRecord] = []
        self._owned_sources = [
            src for src in self.scenario.sources if src.node.node_id in self.owned
        ]
        self._subscribe_capture()
        self._started = False

    # ------------------------------------------------------------ plumbing
    @contextmanager
    def _uid_scope(self) -> Iterator[None]:
        """Route packet-uid draws to this shard's disjoint range.

        The counter is a module global (uids must be process-unique);
        with several inline workers interleaving in one process, each
        swaps its own counter in around build and execution.
        """
        saved = _packet_mod._uid_counter
        _packet_mod._uid_counter = self._uid_counter
        try:
            yield
        finally:
            _packet_mod._uid_counter = saved

    def _fault_scope(self, node_id: int):
        """Foreign crash/recover runs for state parity, schedules nothing."""
        if node_id in self.owned:
            return _null_context()
        return self.sim.suppress()

    def _subscribe_capture(self) -> None:
        tracer = self.scenario.tracer
        if self.capture_all:
            tracer.subscribe("", self._capture)
        else:
            # The exact categories a keep_trace=False single engine still
            # constructs records for (its collectors subscribe to these).
            for category in ("app.send", "app.recv", "phy.tx"):
                tracer.subscribe(category, self._capture)

    def _capture(self, record: TraceRecord) -> None:
        # The key is drawn for *every* captured record — emission
        # counters must advance exactly as they do in sibling shards —
        # but only records this shard owns are kept (foreign fault
        # events replay everywhere for state parity; node-less records
        # are shard 0's).
        key = self.sim.record_key()
        node = record.node
        if node is None:
            if self.shard_index != 0:
                return
        elif node not in self.owned:
            return
        data = record.data
        packet = data.get("packet_obj")
        self.records.append(
            SlimRecord(
                key=key,
                time=record.time,
                category=record.category,
                node=node,
                packet_uid=data.get("packet_uid"),
                packet_kind=data.get("packet_kind"),
                packet_size=packet.size_bytes() if packet is not None else None,
            )
        )

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Replay the single engine's start sequence, suppressing foreign
        nodes' schedules (identical build keys either way)."""
        assert not self._started
        self._started = True
        with self._uid_scope():
            for node in self.scenario.nodes:
                if node.node_id in self.owned:
                    node.start()
                else:
                    with self.sim.suppress():
                        node.start()
            for source in self.scenario.sources:
                if source.node.node_id in self.owned:
                    source.start()
                else:
                    with self.sim.suppress():
                        source.start()
            injector = self.scenario.fault_injector
            if injector is not None:
                injector.arm()

    # ------------------------------------------------------------- promises
    def intervals(self) -> List[Interval]:
        """Drift-padded x-extents of every shard's owned nodes, evaluated
        on this shard's local replicas (identical across shards up to
        bounded drift, which the pad covers)."""
        t = self._eval_time()
        if self._shard_rows is not None:
            # One batch kernel call for every replica's position, then
            # per-shard min/max gathers — bitwise equal to the scalar
            # fold (positions_at matches position_at, and min/max picks
            # the same representatives).
            x, _y = self._aindex.positions_at(t)
            out: List[Interval] = []
            for shard, rows in enumerate(self._shard_rows):
                if rows is None:
                    out.append(None)
                    continue
                xs = x[rows]
                lo = float(xs.min())
                hi = float(xs.max())
                for tx in self._teleport_xs[shard]:
                    if tx < lo:
                        lo = tx
                    if tx > hi:
                        hi = tx
                out.append((lo - self._pad, hi + self._pad))
            self.current_intervals = out
            return out
        nodes = self.scenario.nodes
        out = []
        for shard, owned in enumerate(self.owned_by):
            lo = None
            hi = None
            for nid in owned:
                x = nodes[nid].mobility.position_at(t).x
                if lo is None or x < lo:
                    lo = x
                if hi is None or x > hi:
                    hi = x
            for x in self._teleport_xs[shard]:
                # Scripted destinations count for the whole run: a jump
                # is not bounded drift, so the interval must already
                # cover the landing spot when the window spans it.
                if lo is None or x < lo:
                    lo = x
                if hi is None or x > hi:
                    hi = x
            out.append(None if lo is None else (lo - self._pad, hi + self._pad))
        self.current_intervals = out
        return out

    def _eval_time(self) -> float:
        head = self.sim.peek_key()
        return head[0] if head is not None else self.sim.now

    def peek_time(self) -> Optional[float]:
        head = self.sim.peek_key()
        return head[0] if head is not None else None

    def promise(self) -> Tuple[Optional[float], CausalKey]:
        """``(next event time, promise key)`` for this round.

        The promise key lower-bounds the key of this shard's earliest
        possible future transmission *that can affect another shard*.
        """
        self.intervals()
        drift = self._own_drift
        foreign = [
            (iv[0] - drift, iv[1] + drift)
            for s, iv in enumerate(self.current_intervals)
            if s != self.shard_index and iv is not None
        ]
        nodes = self.scenario.nodes
        t = self._eval_time()
        best: CausalKey = INF_KEY
        if foreign:
            sifs = self.sifs
            hop_cost = self._hop_cost
            hop_range = self._hop_range
            exposed = set()
            # Every owned actor gets a floor.  Exposed actors (inside a
            # drift-widened foreign interval) can transmit across the
            # border directly: their pending transmit sites count at
            # their exact keys, anything else at +SIFS.  Unexposed
            # actors can still *cascade* into a border transmission —
            # their frame triggers a SIFS response or a forward by a
            # node closer to the border — but influence travels at most
            # one interference radius per transmission and every hop
            # costs at least one minimum frame airtime plus SIFS, so
            # distance buys lookahead.
            if self._shard_rows is not None:
                if self._own_rows is not None:
                    x, _y = self._aindex.positions_at(t)
                    xs = x[self._own_rows]
                    dist = None
                    for lo, hi in foreign:
                        d = np.maximum(lo - xs, xs - hi)
                        dist = d if dist is None else np.minimum(dist, d, out=dist)
                    np.maximum(dist, 0.0, out=dist)
                    # Teleporting nodes never earn distance credit: a
                    # scripted jump can move them to a border instantly.
                    exposed_mask = (dist <= 0.0) | self._own_teleport
                    bonus = np.ceil(dist / hop_range) * hop_cost
                    bonus[exposed_mask] = sifs
                    bonus_list = bonus.tolist()
                    next_time = self.sim.actor_next_time
                    best_t = math.inf
                    for i, nid in enumerate(self._own_sorted):
                        earliest = next_time(nid)
                        if earliest is not None:
                            ft = earliest + bonus_list[i]
                            if ft < best_t:
                                best_t = ft
                    if best_t < math.inf:
                        best = (best_t, _FLOOR, ())
                    exposed = set(
                        itertools.compress(self._own_sorted, exposed_mask.tolist())
                    )
            else:
                for nid in sorted(self.owned):
                    earliest = self.sim.actor_next_time(nid)
                    x = nodes[nid].mobility.position_at(t).x
                    dist = min(max(lo - x, x - hi, 0.0) for lo, hi in foreign)
                    if dist <= 0.0 or nid in self._teleport_nodes:
                        # Teleporting nodes never earn distance credit: a
                        # scripted jump can move them to a border instantly.
                        exposed.add(nid)
                        bonus = sifs
                    else:
                        bonus = math.ceil(dist / hop_range) * hop_cost
                    if earliest is not None:
                        floor = (earliest + bonus, _FLOOR, ())
                        if floor < best:
                            best = floor
            sentinel = self.sim.tx_sentinel_floor(
                lambda actor: actor is None or actor in exposed
            )
            if sentinel is not None and key_cmp(sentinel, best) < 0:
                best = sentinel
        # Untracked events and in-flight completions are counted even
        # with no node exposed: a completing transmission can trigger a
        # SIFS response from a node that *becomes* relevant, and events
        # with no attribution are conservatively global.
        untracked = self.sim.untracked_next_time()
        if untracked is not None:
            floor = (untracked + self.sifs, _FLOOR, ())
            if floor < best:
                best = floor
        live: List = []
        for ev, tx_x in self.inflight:
            if ev.cancelled and ev.key[0] <= self.sim.now:
                continue
            live.append((ev, tx_x))
            # The SIFS responder to a completing transmission sits within
            # one interference radius of the (fixed) transmit site, so
            # distance to the border buys the same hop-chain lookahead as
            # an unexposed actor — minus the first hop, whose airtime the
            # in-flight frame has already paid.
            bonus = self.sifs
            if foreign:
                d = min(max(lo - tx_x, tx_x - hi, 0.0) for lo, hi in foreign)
                if d > self._hop_range:
                    bonus += (
                        math.ceil((d - self._hop_range) / self._hop_range)
                        * self._hop_cost
                    )
            floor = (ev.key[0] + bonus, _FLOOR, ())
            if floor < best:
                best = floor
        self.inflight = live
        return self.peek_time(), best

    # ------------------------------------------------------------ ghost I/O
    def deliver_ghosts(self, ghosts: Sequence[GhostTx]) -> None:
        """Mirror foreign transmissions announced at the last barrier."""
        medium = self.scenario.medium
        sim = self.sim
        from repro.geo.vec import Position

        for g in ghosts:
            pos = Position(g.x, g.y)
            cell: dict = {}

            def _start(g=g, pos=pos, cell=cell) -> None:
                cell["v"] = medium.apply_ghost_start(
                    g.sender_id, pos, g.frame, g.start, g.end
                )

            def _finish(cell=cell) -> None:
                tx, affected = cell["v"]
                medium.apply_ghost_finish(tx, affected)

            sim.insert_ghost(g.start_key, _start, "phy.ghost_start")
            finish_event = sim.insert_ghost(g.finish_key, _finish, "phy.tx_end")
            self.inflight.append((finish_event, g.x))

    # ------------------------------------------------------------ execution
    def execute_window(self, horizon: CausalKey) -> Tuple[int, float, List[GhostTx]]:
        """Execute every pending event with key < ``horizon``.

        Returns ``(events executed, busy CPU seconds, outgoing
        ghosts)``.  The busy time feeds the critical-path metric (the
        sum over windows of the slowest shard's busy time — the
        wall-clock a fully parallel execution could achieve).  CPU time,
        not wall time: when worker processes outnumber cores the OS
        time-slices them, and a descheduled worker is not doing work the
        critical path should charge for.
        """
        sim = self.sim
        executed = 0
        self.window_barrier = None
        started = _wall.process_time()
        with self._uid_scope():
            while True:
                head = sim.peek_key()
                # key_cmp: the horizon embeds foreign chains that can be
                # time-locked with the local head for thousands of links
                # (shared slot grid); the native comparison recurses.
                if head is None or key_cmp(head, horizon) >= 0:
                    break
                if (
                    self.window_barrier is not None
                    and key_cmp(head, self.window_barrier) >= 0
                ):
                    break
                sim.execute_next()
                executed += 1
        busy = _wall.process_time() - started
        out = self.bridge.outgoing
        self.bridge.outgoing = []
        if self._plane_ids is not None:
            # Publish owned legs at the barrier — strictly before the
            # round reply, which is what makes the coordinator's plane
            # reads race-free — then compress the positions of outgoing
            # ghosts the published legs can reproduce bit-exactly.
            self.plane_epoch = self.plane.publish_legs(
                self.shard_index,
                self._plane_ids,
                self._aindex._legs,
                self._own_rows,
            )
            out = [
                replace(g, x=math.nan, y=math.nan)
                if self.plane.resolvable(g.sender_id, g.start)
                else g
                for g in out
            ]
        return executed, busy, out

    def execute_round(
        self, horizon: CausalKey, ghosts: Sequence[GhostTx]
    ) -> Tuple[int, float, List[GhostTx], Optional[float], CausalKey]:
        """One round: deliver, execute, then re-promise.

        The promise rides the round reply, so a steady-state round is
        one request and one reply per shard.  The returned promise is computed
        *before* the next round's ghosts arrive; the coordinator
        compensates with each pending ghost's ``resume`` floor (a ghost
        can only defer existing events or trigger SIFS-spaced responses
        to its completion, never create anything earlier — see the
        driver's soundness note).
        """
        self.deliver_ghosts(ghosts)
        executed, busy, out = self.execute_window(horizon)
        peek, key = self.promise()
        return executed, busy, out, peek, key

    # ------------------------------------------------------------- results
    def finish(self, until: float) -> ShardResult:
        """Close the run at the horizon and extract this shard's share."""
        if self.sim.now < until:
            self.sim._now = until
        injector = self.scenario.fault_injector
        if injector is not None:
            injector.finalize(self.sim.now)
        stats: Dict[int, Dict[str, int]] = {}
        collisions = 0
        for node in self.scenario.nodes:
            if node.node_id not in self.owned:
                continue
            stats[node.node_id] = dict(vars(node.router.stats))
            collisions += node.phy.frames_collided
        return ShardResult(
            shard_index=self.shard_index,
            records=self.records,
            router_stats=stats,
            collisions=collisions,
            frames_sent=self.scenario.medium.frames_sent,
            fault_counters=dict(self.scenario.fault_metrics.counters()),
            processed_events=self.sim.processed_events,
        )


@contextmanager
def _null_context() -> Iterator[None]:
    yield
