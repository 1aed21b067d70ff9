"""Shared routing-agent machinery.

Both the GPSR baseline and the paper's AGFW follow the same skeleton:
periodic jittered beaconing, a neighbor structure with expiry, greedy
forwarding decisions, and application send via a location service.
:class:`BaseRouter` implements the skeleton; protocol specifics live in
subclasses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from repro.domains import Domain, Integer, Real, Rule, check_fields, checked, positive
from repro.geo.vec import Position
from repro.location.service import LocationService
from repro.net.mac.frames import MacFrame
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.trace import Tracer

__all__ = ["RouterStats", "ROUTING_DOMAINS", "RoutingConfig", "BaseRouter"]


#: Each routing field's valid values (see :mod:`repro.domains`); the
#: protocol configs extend this table with their own fields.
ROUTING_DOMAINS = {
    "beacon_interval": positive(),
    "beacon_jitter": Real("in [0, 1)", low=0.0, high=1.0, high_open=True),
    "neighbor_timeout_factor": positive(),
    "data_ttl": Integer(1),
    "radio_range": positive(),
}


@checked(ROUTING_DOMAINS)
@dataclass
class RoutingConfig:
    """Parameters shared by all geographic routers."""

    beacon_interval: float = 1.0
    beacon_jitter: float = 0.5  # actual interval ~ U[(1-j)B, (1+j)B]
    neighbor_timeout_factor: float = 4.5  # GPSR's default
    data_ttl: int = 64  # max hops before a packet is discarded
    radio_range: float = 250.0  # last-hop-region test + greedy sanity

    DOMAINS: ClassVar[Dict[str, Domain]]  # set by @checked
    RULES: ClassVar[Tuple[Rule, ...]]
    __post_init__ = check_fields

    @property
    def neighbor_timeout(self) -> float:
        return self.neighbor_timeout_factor * self.beacon_interval


@dataclass
class RouterStats:
    """Per-node routing counters (summed by the harness)."""

    originated: int = 0
    delivered: int = 0
    forwarded: int = 0
    beacons_sent: int = 0
    drops_deadend: int = 0
    drops_ttl: int = 0
    drops_mac: int = 0
    drops_no_location: int = 0
    drops_auth: int = 0
    duplicates: int = 0


class BaseRouter:
    """Skeleton of a beaconing geographic router."""

    def __init__(
        self,
        node: Node,
        location_service: LocationService,
        config: Optional[RoutingConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.location_service = location_service
        self.config = config or RoutingConfig()
        self.tracer = tracer if tracer is not None else node.tracer
        self.stats = RouterStats()
        self._rng: random.Random = node.rng("router")
        self._started = False
        self._beacon_timer = None
        #: Bumped on every crash; delayed closures (crypto delays, signing)
        #: capture the epoch at schedule time and discard themselves when a
        #: crash intervened — state computed before the crash must not leak
        #: into the rebooted router.
        self._fault_epoch = 0
        #: Extra packet handlers (location-service agents register here).
        self.packet_handlers: dict[type, object] = {}

    def register_handler(self, packet_type: type, handler) -> None:
        """Route packets of ``packet_type`` to a service agent's handler."""
        self.packet_handlers[packet_type] = handler

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin beaconing; idempotent."""
        if self._started:
            return
        self._started = True
        # First beacon at a uniform offset so the network's beacons desynchronize.
        first = self._rng.uniform(0.0, self.config.beacon_interval)
        self._beacon_timer = self.sim.schedule(first, self._beacon_tick, name="router.beacon")

    def _beacon_tick(self) -> None:
        self.send_beacon()
        self.stats.beacons_sent += 1
        jitter = self.config.beacon_jitter
        interval = self.config.beacon_interval * self._rng.uniform(1 - jitter, 1 + jitter)
        self._beacon_timer = self.sim.schedule(interval, self._beacon_tick, name="router.beacon")

    # ------------------------------------------------------ lifecycle faults
    def on_fault_down(self) -> None:
        """Node crashed: stop beaconing and forget volatile routing state.

        The base implementation stops the beacon clock and bumps the
        fault epoch (see ``_fault_epoch``); subclasses clear their
        neighbor structures and reliability machinery on top.
        """
        self._fault_epoch += 1
        if self._beacon_timer is not None:
            self._beacon_timer.cancel()
            self._beacon_timer = None
        self._started = False

    def on_fault_up(self) -> None:
        """Node rebooted: restart beaconing from a fresh offset.

        The first post-reboot beacon lands at a new uniform offset — a
        rebooting station re-desynchronizes like a freshly started one.
        """
        self.start()

    # --------------------------------------------------------------- hooks
    def send_beacon(self) -> None:
        """Broadcast one hello/beacon (protocol specific)."""
        raise NotImplementedError

    def on_packet(self, packet: Packet, frame: MacFrame) -> None:
        """MAC upcall (protocol specific)."""
        raise NotImplementedError

    def send_data(self, dest_identity: str, payload_bytes: int) -> Optional[int]:
        """Originate application data toward ``dest_identity``.

        Resolves the destination location through the location service and
        hands off to :meth:`_originate`.  Returns the packet uid, or None
        when the location lookup failed synchronously.
        """
        result: dict[str, Optional[int]] = {"uid": None}

        def _on_location(loc: Optional[Position]) -> None:
            if loc is None:
                self.stats.drops_no_location += 1
                self._trace("route.drop", reason="no_location", dest=dest_identity)
                return
            result["uid"] = self._originate(dest_identity, loc, payload_bytes)

        self.location_service.lookup(self.node, dest_identity, _on_location)
        return result["uid"]

    def _originate(
        self, dest_identity: str, dest_location: Position, payload_bytes: int
    ) -> Optional[int]:
        """Build and forward the first hop of a data packet (protocol specific)."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers
    @property
    def position(self) -> Position:
        return self.node.position

    def in_last_hop_region(self, dest_location: Position) -> bool:
        """Paper Sec 3.2: is the destination location inside our radio range?"""
        return self.position.distance_to(dest_location) <= self.config.radio_range

    def _trace(self, category: str, **data) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, category, node=self.node.node_id, **data)

    def _trace_app_send(self, uid: int, dest: str, payload_bytes: int) -> None:
        self._trace("app.send", packet_uid=uid, dest=dest, payload=payload_bytes)
        self.stats.originated += 1

    def _trace_app_recv(self, uid: int) -> None:
        self._trace("app.recv", packet_uid=uid)
        self.stats.delivered += 1
