"""The shared wireless medium.

A binary-interference (unit-disk) channel model in the NS-2 tradition:

* a frame is *deliverable* to receivers within ``radio_range`` (250 m),
* it *occupies the channel* (carrier sense, interference) out to
  ``interference_range`` (550 m — NS-2's carrier-sense/interference
  default),
* a reception is corrupted when any other transmission impinges on the
  receiver during the reception window, or when the receiver itself
  transmits — this is what produces the hidden-terminal losses that drive
  the paper's Figure 1(a) for broadcast (no-RTS/CTS) traffic.

Node positions are sampled once per frame at transmission start; frames
last << 10 ms while nodes move <= 20 m/s, so intra-frame motion is
negligible.

Fan-out cost
------------
AGFW traffic is broadcast-only at the MAC (no RTS/CTS), so per-frame
fan-out is *the* hot path of every experiment.  By default the medium
classifies it through a :class:`~repro.geo.spatial_array.ArraySpatialIndex`
(uniform grid, cell = interference range, mobility-aware lazy
rebinning, numpy batch kernels): one batched sweep yields the affected
radios in registration order, their deliverability, and each receiver's
sender distance — **bitwise** what the scalar scan computes.
``reference=True`` replaces it with the proof oracle: a scalar scan over
every registered radio, each PHY recomputing its own sender distance.
The test suite checks the index against that scan on every transmission
and neighbor query.

Fan-out memo
------------
While no radio can have moved, a sender's fan-out is the same on every
frame, so the medium keeps the last classification per sender and
replays it.  The key is the index's ``stationary_stamp``: equal stamps
mean every radio sits bitwise where it sat, which the array index proves
for paused random-waypoint windows (every node of the paper's arena
waits 60 s before its first leg) as well as for all-static topologies.
A hit skips the index entirely.  The reference scan keeps no memo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.geo.spatial_array import ArraySpatialIndex, FanOut
from repro.geo.vec import Position
from repro.net.mac.frames import MacFrame
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.phy import PhyRadio

__all__ = ["Transmission", "RadioMedium"]


@dataclass(slots=True)
class Transmission:
    """One frame in flight.

    ``deliverable_to`` is a node-id set — membership is the only question
    receivers ever ask.  Fan-out memo hits share the memo's frozenset
    instead of copying it, so it must never be mutated after transmit.
    """

    uid: int
    sender_id: int
    sender_pos: Position
    frame: MacFrame
    start: float
    end: float
    deliverable_to: AbstractSet[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class RadioMedium:
    """Connects all :class:`~repro.net.phy.PhyRadio` instances.

    The medium owns range semantics; radios own per-receiver reception
    state.  ``transmit`` is called by a radio that has already won its
    MAC-level contention.
    """

    def __init__(
        self,
        sim: Simulator,
        tracer: Optional[Tracer] = None,
        radio_range: float = 250.0,
        interference_range: float = 550.0,
        reference: bool = False,
    ) -> None:
        if interference_range < radio_range:
            raise ValueError("interference range must cover the radio range")
        self.sim = sim
        self.tracer = tracer
        self.radio_range = radio_range
        self.interference_range = interference_range
        self._radios: List["PhyRadio"] = []
        self._radio_range2 = radio_range * radio_range
        self._interference_range2 = interference_range * interference_range
        self.frames_sent = 0
        # Per-medium so a second simulation in the same process restarts at
        # uid 1 and trace output stays identical run-to-run (previously a
        # module-global leaked state across Simulator instances).
        self._tx_uid = itertools.count(1)
        #: The array index; ``None`` under the brute reference scan.
        self._aindex: Optional[ArraySpatialIndex] = (
            None if reference else ArraySpatialIndex(cell_size=interference_range)
        )
        #: Fan-out memo (see the module docstring): sender node id ->
        #: (stationary stamp, sender position, affected radios in
        #: registration order, deliverable ids, per-receiver distances).
        #: An entry is used only while the index returns the stamp it was
        #: stored under.
        self._fanout_memo: Dict[
            int, Tuple[int, Position, List["PhyRadio"], FrozenSet[int], List[float]]
        ] = {}

    def register(self, radio: "PhyRadio") -> None:
        self._radios.append(radio)
        if self._aindex is not None:
            self._aindex.add(radio, self.sim.now)

    @property
    def radios(self) -> Sequence["PhyRadio"]:
        """All registered radios, in registration order.

        A live read-only view (not a defensive copy — this sits on hot
        paths); callers must not mutate it.
        """
        return self._radios

    # ------------------------------------------------------------ candidates
    def _candidates(self, center: Position, rng: float) -> Sequence["PhyRadio"]:
        """Radios that may lie within ``rng`` of ``center`` (superset,
        registration order): the index's gather, or every radio."""
        if self._aindex is None:
            return self._radios
        return self._aindex.candidates_within(center, rng, self.sim.now)

    # ------------------------------------------------------------- transmit
    def transmit(self, sender: "PhyRadio", frame: MacFrame, duration: float) -> Transmission:
        """Put ``frame`` on the air for ``duration`` seconds.

        Returns the transmission record (its ``end`` is when the sender's
        radio frees up).  Reception outcomes are decided when it ends.
        """
        now = self.sim.now
        aindex = self._aindex
        # -1 disables the memo (the reference scan, or some radio may have moved).
        stamp = aindex.stationary_stamp(now) if aindex is not None else -1
        cached = None
        if stamp >= 0:
            cached = self._fanout_memo.get(sender.node_id)
            if cached is not None and cached[0] != stamp:
                cached = None
        fan: Optional[FanOut] = None
        deliverable: AbstractSet[int]
        if cached is not None:
            sender_pos = cached[1]
            deliverable = cached[3]
        else:
            members: Set[int] = set()
            deliverable = members
            if aindex is not None:
                # One batched sweep classifies the whole fan-out; the
                # sender's own position comes from the same kernel (bitwise
                # equal to the scalar interpolation, see repro.geo.vecops).
                fan = aindex.classify_fanout(
                    sender.node_id,
                    now,
                    self.interference_range,
                    self._radio_range2,
                    self._interference_range2,
                )
                sender_pos = Position(fan.sx, fan.sy)
            else:
                sender_pos = sender.position
        tx = Transmission(
            uid=next(self._tx_uid),
            sender_id=sender.node_id,
            sender_pos=sender_pos,
            frame=frame,
            start=now,
            end=now + duration,
            deliverable_to=deliverable,
        )
        self.frames_sent += 1
        tracer = self.tracer
        # enabled_for guard: the phy.tx payload below is the biggest dict
        # built anywhere on the hot path — skip it entirely when nobody
        # retains or subscribes to phy.tx records.
        if tracer is not None and tracer.enabled_for("phy.tx"):
            tracer.emit(
                now,
                "phy.tx",
                node=sender.node_id,
                frame_kind=frame.kind.value,
                frame_uid=frame.uid,
                dst=frame.dst.value,
                packet_uid=frame.packet.uid if frame.packet else None,
                packet_kind=frame.packet.kind if frame.packet else None,
                packet_obj=frame.packet,
                pos=sender_pos.as_tuple(),
                duration=duration,
            )

        sender.begin_transmit(tx)
        if cached is not None:
            affected = cached[2]
            for radio, dist in zip(affected, cached[4]):
                radio.on_tx_start(tx, dist)
        elif fan is not None:
            affected = []
            radios = self._radios
            add = members.add
            hypot = math.hypot
            rows, fdx, fdy, fdel = fan.rows, fan.dx, fan.dy, fan.deliverable
            # The distances list is only consumed by the fan-out memo;
            # mobile runs (the common hot case) skip collecting it.
            if stamp >= 0:
                dists: List[float] = []
                for row, dxv, dyv, deliv in zip(rows, fdx, fdy, fdel):
                    radio = radios[row]
                    # Scalar hypot on the batch-derived deltas: bitwise
                    # what own_pos.distance_to(sender_pos) computes in the
                    # PHY, so capture ratios and loss draws see identical
                    # floats.
                    dist = hypot(dxv, dyv)
                    if deliv:
                        add(radio.node_id)
                    radio.on_tx_start(tx, dist)
                    affected.append(radio)
                    dists.append(dist)
                # affected is shared with the memo but never mutated in
                # place (recomputes build a fresh list), so in-flight
                # _finish closures stay correct across invalidation.
                self._fanout_memo[sender.node_id] = (
                    stamp, sender_pos, affected, frozenset(members), dists
                )
            else:
                for row, dxv, dyv, deliv in zip(rows, fdx, fdy, fdel):
                    radio = radios[row]
                    dist = hypot(dxv, dyv)
                    if deliv:
                        add(radio.node_id)
                    radio.on_tx_start(tx, dist)
                    affected.append(radio)
        else:
            affected = []
            add = members.add
            radio_range2 = self._radio_range2
            interference_range2 = self._interference_range2
            for radio in self._radios:
                if radio is sender:
                    continue
                d2 = radio.position.distance2_to(sender_pos)
                if d2 <= interference_range2:
                    if d2 <= radio_range2:
                        add(radio.node_id)
                    radio.on_tx_start(tx)
                    affected.append(radio)

        def _finish() -> None:
            sender.end_transmit(tx)
            for radio in affected:
                radio.on_tx_end(tx)

        self.sim.schedule(duration, _finish, priority=-1, name="phy.tx_end")
        return tx

    # --------------------------------------------------------------- faults
    def invalidate_radio(self, radio: "PhyRadio") -> None:
        """A radio's liveness changed (crash/recover): drop derived caches.

        Geometry is untouched — a down node still occupies space and
        blocks/interferes as energy — but any cached fan-out the caller
        may layer on liveness must rebuild, so the fan-out memo is
        dropped and the spatial index version is bumped (which also
        drops its gather cache).  Never called on the no-faults path, so
        the seed behaviour is byte-identical.
        """
        self._fanout_memo.clear()
        if self._aindex is not None:
            self._aindex.invalidate_all()

    # -------------------------------------------------------------- queries
    def neighbors_within(self, radio: "PhyRadio", rng: float) -> List["PhyRadio"]:
        """Radios within ``rng`` metres of ``radio`` (excluding itself)."""
        center = radio.position
        limit = rng * rng
        return [
            other
            for other in self._candidates(center, rng)
            if other is not radio and other.position.distance2_to(center) <= limit
        ]

    def index_stats(self) -> Optional[dict]:
        """Spatial-index telemetry (``None`` under the reference scan)."""
        return self._aindex.stats() if self._aindex is not None else None
