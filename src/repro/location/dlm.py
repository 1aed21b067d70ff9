"""DLM — the grid-based distributed location service (Xue et al., LCN'01).

The baseline the paper's ALS anonymizes.  The network area is divided
into equal grids; a publicly known *server selection algorithm* maps a
node identity to its server grid(s) (:meth:`repro.geo.grid.Grid.home_cells`).
Nodes periodically geo-route a location update to each server grid; any
node currently inside the grid acts as a location server and stores the
entry.  A querying node geo-routes a request to the target's server
grid and gets a reply routed back to its own advertised location.

Privacy-wise DLM is the *second* leak the paper attacks: the updater's
``(identity, location)`` doublet crosses the network in cleartext and
sits in cleartext at the server; the requester also reveals itself.
``wire_view`` on each packet makes those leaks explicit for the
adversary modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.net.addresses import LAST_ATTEMPT
from repro.geo.grid import Cell, Grid
from repro.geo.vec import Position
from repro.location.geocast import LocationAddressed
from repro.net.addresses import BROADCAST
from repro.net.mac.frames import MacFrame
from repro.net.node import Node
from repro.sim.engine import Event

__all__ = [
    "DlmConfig",
    "DlmUpdate",
    "DlmRequest",
    "DlmReply",
    "DlmAgent",
    "StoredLocation",
]

_ID_BYTES = 4
_LOC_BYTES = 8


@dataclass
class DlmConfig:
    """Knobs of the location service (shared with ALS where noted)."""

    update_interval: float = 10.0
    update_jitter: float = 0.2
    entry_ttl: float = 35.0  # server entries expire (3.5x the update period)
    servers_per_node: int = 1
    request_timeout: float = 2.0
    request_retries: int = 1
    replicate_in_cell: bool = True  # one local broadcast to seed cell-mates
    service_ttl: int = 64  # hop budget for service packets


@dataclass
class DlmUpdate(LocationAddressed):
    """RLU: the updater's identity and location, in cleartext."""

    KIND = "dlm.update"

    identity: str = ""
    position: Position = field(default_factory=lambda: Position(0.0, 0.0))
    timestamp: float = 0.0
    final_broadcast: bool = False

    def header_bytes(self) -> int:
        return super().header_bytes() + _ID_BYTES + _LOC_BYTES + 4

    def wire_view(self) -> dict:
        return {
            "identity": self.identity,
            "location": self.position.as_tuple(),
            "timestamp": self.timestamp,
        }


@dataclass
class DlmRequest(LocationAddressed):
    """LREQ: who is asking, from where, about whom — all in cleartext."""

    KIND = "dlm.request"

    requester_identity: str = ""
    requester_location: Position = field(default_factory=lambda: Position(0.0, 0.0))
    target_identity: str = ""
    final_broadcast: bool = False

    def header_bytes(self) -> int:
        return super().header_bytes() + 2 * _ID_BYTES + _LOC_BYTES

    def wire_view(self) -> dict:
        return {
            "requester_identity": self.requester_identity,
            "requester_location": self.requester_location.as_tuple(),
            "target_identity": self.target_identity,
        }


@dataclass
class DlmReply(LocationAddressed):
    """LREP: the target's stored doublet, routed back to the requester."""

    KIND = "dlm.reply"

    requester_identity: str = ""
    target_identity: str = ""
    target_position: Position = field(default_factory=lambda: Position(0.0, 0.0))
    timestamp: float = 0.0
    final_broadcast: bool = False

    def header_bytes(self) -> int:
        return super().header_bytes() + 2 * _ID_BYTES + _LOC_BYTES + 4

    def wire_view(self) -> dict:
        return {
            "requester_identity": self.requester_identity,
            "target_identity": self.target_identity,
            "target_location": self.target_position.as_tuple(),
        }


@dataclass
class StoredLocation:
    """One entry of a node acting as location server."""

    identity: str
    position: Position
    timestamp: float
    stored_at: float


@dataclass
class _PendingLookup:
    callback: Callable[[Optional[Position]], None]
    retries_left: int
    timer: Optional[Event] = None


class DlmAgent:
    """The location-service role of one node (updater, server, requester)."""

    def __init__(
        self,
        node: Node,
        router,
        grid: Grid,
        config: Optional[DlmConfig] = None,
        install: bool = True,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.router = router
        self.grid = grid
        self.config = config or DlmConfig()
        self._rng: random.Random = node.rng("dlm")
        self.store: Dict[str, StoredLocation] = {}
        self._pending: Dict[str, _PendingLookup] = {}
        self._seen_uids: set[int] = set()
        self._started = False
        self.messages_sent = 0
        self.bytes_sent = 0
        self.updates_stored = 0
        self.requests_served = 0
        self.lookups_failed = 0
        if install:
            self.install()

    def install(self) -> None:
        """Register packet handlers and become the router's location service."""
        for packet_type in (DlmUpdate, DlmRequest, DlmReply):
            self.router.register_handler(packet_type, self._on_packet)
        self.router.location_service = self

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        first = self._rng.uniform(0.0, self.config.update_interval)
        self.sim.schedule(first, self._update_tick, name="dlm.update")

    def _update_tick(self) -> None:
        self.send_updates()
        jitter = self.config.update_jitter
        interval = self.config.update_interval * self._rng.uniform(1 - jitter, 1 + jitter)
        self.sim.schedule(interval, self._update_tick, name="dlm.update")

    # -------------------------------------------------------------- updates
    def home_cells(self) -> List[Cell]:
        return self.grid.home_cells(self.node.identity, self.config.servers_per_node)

    def send_updates(self) -> None:
        """RLU: push our current doublet to every server grid."""
        now = self.sim.now
        position = self.node.position
        for cell in self.home_cells():
            update = DlmUpdate(
                target_location=self.grid.center_of(cell),
                ttl=self.config.service_ttl,
                # DLM is the plain baseline location service: the RLU
                # carries the (identity, location) doublet in cleartext —
                # exactly what ALS replaces with an encrypted index.
                identity=self.node.identity,  # repro: noqa[ANON-001] baseline leak
                position=position,
                timestamp=now,
            )
            self._route(update)

    # -------------------------------------------------------------- lookups
    def lookup(
        self, requester: Node, identity: str, callback: Callable[[Optional[Position]], None]
    ) -> None:
        """LREQ toward the target's server grid; async reply or timeout."""
        local = self.store.get(identity)
        if local is not None and self._fresh(local):
            callback(local.position)
            return
        pending = _PendingLookup(callback, self.config.request_retries)
        self._pending[identity] = pending
        self._send_request(identity, pending)

    def _send_request(self, identity: str, pending: _PendingLookup) -> None:
        cell = self.grid.home_cells(identity, self.config.servers_per_node)[0]
        request = DlmRequest(
            target_location=self.grid.center_of(cell),
            ttl=self.config.service_ttl,
            # Plain-baseline lookup: both identities are wire-visible.
            requester_identity=self.node.identity,  # repro: noqa[ANON-001] baseline leak
            requester_location=self.node.position,
            target_identity=identity,  # repro: noqa[ANON-001] baseline leak
        )
        self._route(request)
        pending.timer = self.sim.schedule(
            self.config.request_timeout,
            lambda: self._on_lookup_timeout(identity),
            name="dlm.req_to",
        )

    def _on_lookup_timeout(self, identity: str) -> None:
        pending = self._pending.get(identity)
        if pending is None:
            return
        if pending.retries_left > 0:
            pending.retries_left -= 1
            self._send_request(identity, pending)
            return
        del self._pending[identity]
        self.lookups_failed += 1
        pending.callback(None)

    # ------------------------------------------------------------ transport
    def _route(self, packet: LocationAddressed) -> None:
        """Send toward the packet's target location (or consume locally)."""
        self.messages_sent += 1
        self.bytes_sent += packet.size_bytes()
        if self._arrived(packet):
            self._consume(packet)
        else:
            self.router.forward_location_packet(packet, self._on_local_max)

    def _arrived(self, packet: LocationAddressed) -> bool:
        """Are we a valid endpoint for this packet, here and now?"""
        if isinstance(packet, DlmReply):
            return packet.requester_identity == self.node.identity
        own_cell = self.grid.cell_of(self.node.position)
        return own_cell == self.grid.cell_of(packet.target_location)

    def _on_packet(self, packet: LocationAddressed, frame: MacFrame) -> None:
        if packet.uid in self._seen_uids:
            # MAC retransmissions with lost ACKs deliver duplicates; without
            # suppression each copy would re-forward (a broadcast storm).
            return
        self._seen_uids.add(packet.uid)
        if self._arrived(packet):
            self._consume(packet)
            return
        if getattr(packet, "final_broadcast", False):
            return  # a last-chance broadcast we were not the endpoint of
        self.router.forward_location_packet(packet, self._on_local_max)

    def _on_local_max(self, packet: LocationAddressed) -> None:
        """No neighbor is closer to the target.  One local broadcast gives
        in-cell nodes (or the requester) a final chance, then the packet dies."""
        if self._arrived(packet):
            self._consume(packet)
            return
        if getattr(packet, "final_broadcast", False):
            return
        outgoing = packet.clone_for_forwarding(
            final_broadcast=True,
            ttl=max(packet.ttl - 1, 0),
            next_pseudonym=LAST_ATTEMPT,
        )
        self.node.mac.send(outgoing, BROADCAST)

    # ----------------------------------------------------------- server role
    def _consume(self, packet: LocationAddressed) -> None:
        if isinstance(packet, DlmUpdate):
            self._store_update(packet)
        elif isinstance(packet, DlmRequest):
            self._serve_request(packet)
        elif isinstance(packet, DlmReply):
            self._finish_lookup(packet)

    def _store_update(self, update: DlmUpdate) -> None:
        self.store[update.identity] = StoredLocation(
            identity=update.identity,
            position=update.position,
            timestamp=update.timestamp,
            stored_at=self.sim.now,
        )
        self.updates_stored += 1
        if self.config.replicate_in_cell and not update.final_broadcast:
            clone = update.clone_for_forwarding(
                final_broadcast=True, next_pseudonym=LAST_ATTEMPT
            )
            self.node.mac.send(clone, BROADCAST)

    def _serve_request(self, request: DlmRequest) -> None:
        if request.requester_identity == self.node.identity:
            return  # our own request echoed around the cell
        entry = self.store.get(request.target_identity)
        if entry is None or not self._fresh(entry):
            return  # no knowledge; the requester will time out and retry
        self.requests_served += 1
        reply = DlmReply(
            target_location=request.requester_location,
            ttl=self.config.service_ttl,
            # Plain-baseline reply: echoes the requester and hands out the
            # target's identity-location doublet to any sniffer.
            requester_identity=request.requester_identity,  # repro: noqa[ANON-001] baseline leak
            target_identity=entry.identity,  # repro: noqa[ANON-001] baseline leak
            target_position=entry.position,  # repro: noqa[ANON-001] baseline leak
            timestamp=entry.timestamp,
        )
        self._route(reply)

    def _finish_lookup(self, reply: DlmReply) -> None:
        pending = self._pending.pop(reply.target_identity, None)
        if pending is None:
            return  # duplicate reply
        if pending.timer is not None:
            pending.timer.cancel()
        pending.callback(reply.target_position)

    def _fresh(self, entry: StoredLocation) -> bool:
        return (self.sim.now - entry.stored_at) <= self.config.entry_ttl

    # --------------------------------------------------------------- queries
    def is_server_for(self, identity: str) -> bool:
        """Is this node currently inside one of ``identity``'s server grids?"""
        own_cell = self.grid.cell_of(self.node.position)
        return own_cell in self.grid.home_cells(identity, self.config.servers_per_node)
