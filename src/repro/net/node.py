"""A simulated node: mobility + radio + MAC + (pluggable) routing agent.

The node is deliberately thin — it wires the layers together and gives
routing agents a stable surface: ``node.position``, ``node.mac.send``,
``node.identity``, ``node.keystore``.  Routing agents (GPSR or the
paper's AGFW) are attached after construction via :meth:`attach_router`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Protocol

from repro.geo.vec import Position
from repro.net.addresses import MacAddress, mac_for_node
from repro.net.mac.constants import DEFAULT_DOT11, Dot11Params
from repro.net.mac.dcf import DcfMac
from repro.net.mac.frames import MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import MobilityModel
from repro.net.packet import Packet
from repro.net.phy import PhyRadio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.crypto.certificates import KeyStore

__all__ = ["Node", "RouterAgent"]


class RouterAgent(Protocol):
    """The contract a routing agent fulfils."""

    def start(self) -> None:
        """Begin periodic activity (beaconing etc.)."""
        ...

    def on_packet(self, packet: Packet, frame: MacFrame) -> None:
        """Handle a packet delivered by the MAC."""
        ...

    def send_data(self, dest_identity: str, payload_bytes: int) -> Optional[int]:
        """Originate application data; returns the packet uid (or None if refused)."""
        ...


class Node:
    """One mobile station."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        medium: RadioMedium,
        mobility: MobilityModel,
        rngs: RngRegistry,
        tracer: Optional[Tracer] = None,
        dot11: Dot11Params = DEFAULT_DOT11,
        identity: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.identity = identity if identity is not None else f"node-{node_id}"
        self.mobility = mobility
        self.tracer = tracer
        self.address: MacAddress = mac_for_node(node_id)
        self.rngs = rngs.fork(f"node:{node_id}")
        self._packet_uids = medium.packet_uids

        self.phy = PhyRadio(sim, node_id, medium, mobility, tracer)
        self.mac = DcfMac(
            sim,
            node_id,
            self.address,
            self.phy,
            rng=self.rngs.stream("mac"),
            params=dot11,
            tracer=tracer,
        )
        self.router: Optional[RouterAgent] = None
        self.keystore: Optional["KeyStore"] = None

    # ------------------------------------------------------------- plumbing
    def attach_router(self, router: RouterAgent) -> None:
        """Install the routing agent and route MAC upcalls into it."""
        self.router = router
        self.mac.receive_callback = router.on_packet

    def start(self) -> None:
        """Start the node's routing agent (call once, after attach)."""
        if self.router is None:
            raise RuntimeError(f"node {self.node_id} has no router attached")
        self.router.start()

    # ------------------------------------------------------ lifecycle faults
    @property
    def down(self) -> bool:
        """True while the node is crashed (see :meth:`fail`)."""
        return self.phy.down

    def fail(self) -> bool:
        """Take the node genuinely down (crash / power loss).

        No tx, no rx, beacons stop, volatile MAC and router state is
        lost, and the medium's liveness-derived caches are invalidated —
        in contrast to the legacy teleport hack, which kept the node
        transmitting from far away.  Idempotent; returns True when the
        node actually transitioned up -> down.
        """
        if self.phy.down:
            return False
        self.phy.down = True
        self.mac.on_node_down()
        router = self.router
        if router is not None:
            on_fault_down = getattr(router, "on_fault_down", None)
            if callable(on_fault_down):
                on_fault_down()
        self.phy.medium.invalidate_radio(self.phy)
        return True

    def recover(self) -> bool:
        """Bring a crashed node back up (reboot: empty volatile state).

        Beaconing restarts from a fresh offset, so neighbors relearn the
        node exactly as they would a newly joined station.  Idempotent;
        returns True when the node actually transitioned down -> up.
        """
        if not self.phy.down:
            return False
        self.phy.down = False
        self.mac.on_node_up()
        router = self.router
        if router is not None:
            on_fault_up = getattr(router, "on_fault_up", None)
            if callable(on_fault_up):
                on_fault_up()
        self.phy.medium.invalidate_radio(self.phy)
        return True

    # -------------------------------------------------------------- queries
    @property
    def position(self) -> Position:
        return self.mobility.position_at(self.sim.now)

    def next_packet_uid(self) -> int:
        """The run's next packet uid: one sequence over every node on the
        medium, so uids are unique within the run and restart at 1 in the
        next."""
        return next(self._packet_uids)

    def rng(self, purpose: str) -> random.Random:
        """Per-node, per-purpose deterministic RNG stream."""
        return self.rngs.stream(purpose)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id} '{self.identity}' @ {self.position})"
