"""GPSR (Karp & Kung, MobiCom 2000) — the paper's baseline.

Greedy forwarding over a beaconed neighbor table, with optional
perimeter-mode recovery on the Gabriel-planarized radio graph.  The
Figure 1 comparisons run **GPSR-Greedy** (``enable_perimeter=False``),
exactly as the paper does.

Privacy-wise this protocol is the *negative* baseline: beacons carry
``(identity, location)`` in cleartext and data packets carry the
destination's doublet — everything the adversary needs (see
:meth:`GpsrBeacon.wire_view`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.domains import InstanceOf, Integer, checked
from repro.geo.vec import Position
from repro.net.mac.frames import MacFrame
from repro.net.packet import Packet
from repro.routing.base import ROUTING_DOMAINS, BaseRouter, RoutingConfig
from repro.routing.neighbor_table import NeighborTable
from repro.routing.planar import (
    crossing_point,
    gabriel_neighbors,
    right_hand_neighbor,
)

__all__ = ["GpsrBeacon", "GpsrData", "GpsrConfig", "GpsrRouter"]

_IP_HEADER = 20
_LOC_BYTES = 8  # two 4-byte fixed-point coordinates
_ID_BYTES = 4


@dataclass
class GpsrBeacon(Packet):
    """The periodic hello: sender identity + current position, in cleartext."""

    KIND = "gpsr.beacon"

    sender_identity: str = ""
    position: Position = field(default_factory=lambda: Position(0.0, 0.0))
    timestamp: float = 0.0

    def header_bytes(self) -> int:
        return _IP_HEADER + _ID_BYTES + _LOC_BYTES + 4  # + timestamp

    def wire_view(self) -> dict:
        """What a sniffer reads off the air — the full privacy leak."""
        return {
            "identity": self.sender_identity,
            "location": self.position.as_tuple(),
            "timestamp": self.timestamp,
        }


@dataclass
class GpsrData(Packet):
    """A data packet: destination identity and location ride in the header."""

    KIND = "gpsr.data"

    src_identity: str = ""
    dest_identity: str = ""
    dest_location: Position = field(default_factory=lambda: Position(0.0, 0.0))
    ttl: int = 64
    mode: str = "greedy"  # or "perimeter"
    entry_location: Optional[Position] = None  # Lp: where perimeter mode began
    face_point: Optional[Position] = None  # best crossing toward D on this face
    last_hop_position: Optional[Position] = None  # right-hand rule reference

    def header_bytes(self) -> int:
        base = _IP_HEADER + 2 * _ID_BYTES + _LOC_BYTES + 2  # ids, dest loc, ttl/mode
        if self.mode == "perimeter":
            base += 3 * _LOC_BYTES  # Lp, face point, last-hop position
        return base

    def wire_view(self) -> dict:
        view = {
            "src_identity": self.src_identity,
            "dest_identity": self.dest_identity,
            "dest_location": self.dest_location.as_tuple(),
        }
        return view


@checked({
    **ROUTING_DOMAINS,
    "enable_perimeter": InstanceOf(bool),
    "mac_retry_limit": Integer(0),
})
@dataclass
class GpsrConfig(RoutingConfig):
    """GPSR-specific knobs on top of the shared routing parameters."""

    enable_perimeter: bool = False
    mac_retry_limit: int = 3  # next-hop re-selections after MAC failures


class GpsrRouter(BaseRouter):
    """One node's GPSR agent."""

    def __init__(self, node, location_service, config=None, tracer=None) -> None:
        super().__init__(node, location_service, config or GpsrConfig(), tracer)
        self.table = NeighborTable(self.config.neighbor_timeout)
        self._seen: set[Tuple[int, int]] = set()
        self._purge_tick()

    def _purge_tick(self) -> None:
        self.table.purge(self.sim.now)
        self.sim.schedule(self.config.beacon_interval, self._purge_tick, name="gpsr.purge")

    # ------------------------------------------------------ lifecycle faults
    def on_fault_down(self) -> None:
        """Crash: the beaconed neighbor table and the duplicate cache are
        volatile — a rebooted router relearns the neighborhood from
        scratch (the purge tick keeps running; purging an empty table is
        a no-op)."""
        super().on_fault_down()
        self.table.clear()
        self._seen.clear()

    # ------------------------------------------------------------- beaconing
    def send_beacon(self) -> None:
        beacon = GpsrBeacon(
            # GPSR is the paper's non-anonymous baseline: the cleartext
            # (identity, location) doublet in its beacon is the leak the
            # Fig. 1 comparison measures AGFW against.
            sender_identity=self.node.identity,  # repro: noqa[ANON-001] baseline leak
            position=self.position,
            timestamp=self.sim.now,
        )
        from repro.net.addresses import BROADCAST

        self.node.mac.send(beacon, BROADCAST)

    # -------------------------------------------------------------- receive
    def on_packet(self, packet: Packet, frame: MacFrame) -> None:
        handler = self.packet_handlers.get(type(packet))
        if handler is not None:
            handler(packet, frame)
            return
        if isinstance(packet, GpsrBeacon):
            self.table.update(
                packet.sender_identity, frame.src, packet.position, self.sim.now
            )
        elif isinstance(packet, GpsrData):
            self._handle_data(packet)

    def _handle_data(self, packet: GpsrData) -> None:
        key = (packet.uid, packet.ttl)
        if key in self._seen:
            self.stats.duplicates += 1
            return
        self._seen.add(key)
        if packet.dest_identity == self.node.identity:
            self._trace_app_recv(packet.uid)
            return
        self._forward(packet, retries_left=int(self.config.mac_retry_limit))

    # ------------------------------------------------------------ originate
    def _originate(
        self, dest_identity: str, dest_location: Position, payload_bytes: int
    ) -> Optional[int]:
        packet = GpsrData(
            payload_bytes=payload_bytes,
            # Baseline protocol: both endpoint identities ride in the
            # cleartext header (what AGFW replaces with a trapdoor).
            src_identity=self.node.identity,  # repro: noqa[ANON-001] baseline leak
            dest_identity=dest_identity,  # repro: noqa[ANON-001] baseline leak
            dest_location=dest_location,
            ttl=self.config.data_ttl,
        )
        self._trace_app_send(packet.uid, dest_identity, payload_bytes)
        if dest_identity == self.node.identity:  # loopback, degenerate
            self._trace_app_recv(packet.uid)
            return packet.uid
        self._forward(packet, retries_left=int(self.config.mac_retry_limit))
        return packet.uid

    # ------------------------------------------------------------ forwarding
    def _forward(self, packet: GpsrData, retries_left: int) -> None:
        if packet.ttl <= 0:
            self.stats.drops_ttl += 1
            self._trace("route.drop", reason="ttl", packet_uid=packet.uid)
            return
        now = self.sim.now
        own = self.position
        dest = packet.dest_location

        # The destination itself may be in our table: always prefer it.
        direct = self.table.get(packet.dest_identity)
        if direct is not None:
            self._transmit(packet, direct, retries_left, mode="greedy")
            return

        if packet.mode == "perimeter" and self.config.enable_perimeter:
            # Return to greedy as soon as we beat the perimeter entry point.
            assert packet.entry_location is not None
            if own.distance2_to(dest) < packet.entry_location.distance2_to(dest):
                packet = packet.clone_for_forwarding(
                    mode="greedy",
                    entry_location=None,
                    face_point=None,
                    last_hop_position=None,
                )
            else:
                self._perimeter_forward(packet, retries_left)
                return

        entry = self.table.best_towards(dest, own, now)
        if entry is not None:
            self._transmit(packet, entry, retries_left, mode="greedy")
            return

        if self.config.enable_perimeter:
            perimeter = packet.clone_for_forwarding(
                mode="perimeter",
                entry_location=own,
                face_point=None,
                last_hop_position=None,
            )
            self._perimeter_forward(perimeter, retries_left)
            return

        self.stats.drops_deadend += 1
        self._trace("route.drop", reason="deadend", packet_uid=packet.uid)

    def _perimeter_forward(self, packet: GpsrData, retries_left: int) -> None:
        own = self.position
        dest = packet.dest_location
        neighbors = [
            (e.identity, e.position) for e in self.table.entries(self.sim.now)
        ]
        planar = gabriel_neighbors(own, neighbors)
        if not planar:
            self.stats.drops_deadend += 1
            self._trace("route.drop", reason="perimeter_isolated", packet_uid=packet.uid)
            return
        reference = packet.last_hop_position or dest
        choice = right_hand_neighbor(own, reference, planar)
        assert choice is not None
        next_id, next_pos = choice

        # Face change: does the chosen edge cross the Lp->D line closer to D?
        assert packet.entry_location is not None
        cross = crossing_point(own, next_pos, packet.entry_location, dest)
        if cross is not None:
            previous_best = packet.face_point
            if previous_best is None or cross.distance2_to(dest) < previous_best.distance2_to(dest):
                # Enter the new face: sweep again from the destination line.
                packet = packet.clone_for_forwarding(face_point=cross)
                choice = right_hand_neighbor(own, dest, planar)
                assert choice is not None
                next_id, next_pos = choice

        entry = self.table.get(next_id)
        if entry is None:  # expired between snapshot and now
            self.stats.drops_deadend += 1
            self._trace("route.drop", reason="perimeter_stale", packet_uid=packet.uid)
            return
        packet = packet.clone_for_forwarding(last_hop_position=own)
        self._transmit(packet, entry, retries_left, mode="perimeter")

    def _transmit(self, packet: GpsrData, entry, retries_left: int, mode: str) -> None:
        outgoing = packet.clone_for_forwarding(ttl=packet.ttl - 1, mode=mode)

        def _done(success: bool) -> None:
            if success:
                self.stats.forwarded += 1
                return
            # GPSR reaction to MAC failure: evict the neighbor, try another.
            self.table.remove(entry.identity)
            if retries_left > 0:
                self._forward(packet, retries_left - 1)
            else:
                self.stats.drops_mac += 1
                self._trace("route.drop", reason="mac", packet_uid=packet.uid)

        self._trace(
            "route.forward",
            packet_uid=packet.uid,
            next_hop=entry.identity,
            mode=mode,
        )
        self.node.mac.send(outgoing, entry.mac, _done)

    # ------------------------------------------------------------- geocast
    def forward_location_packet(self, packet, deliver_local) -> None:
        """Route a service packet toward its target location (DLM transport).

        Greedy unicast hop-by-hop; ``deliver_local`` fires at the local
        maximum so the service agent can decide whether it has arrived.
        """
        if packet.ttl <= 0:
            self.stats.drops_ttl += 1
            return
        entry = self.table.best_towards(
            packet.target_location, self.position, self.sim.now
        )
        if entry is None:
            deliver_local(packet)
            return
        outgoing = packet.clone_for_forwarding(ttl=packet.ttl - 1)

        def _done(success: bool) -> None:
            if not success:
                self.table.remove(entry.identity)
                self.forward_location_packet(packet, deliver_local)

        self.node.mac.send(outgoing, entry.mac, _done)
