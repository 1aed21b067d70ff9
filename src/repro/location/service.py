"""Location service interfaces.

Geographic routing needs the destination's location before it can send.
The paper's routing model calls this the *location service* (RLU/LREQ
messages).  Three implementations exist in this repo:

* :class:`OracleLocationService` (here) — an omniscient, zero-cost
  database, the standard methodology for isolating routing performance
  (the paper's Figure 1 experiments "did not incorporate ALS so as to
  focus our evaluation on the major routing part").
* :class:`~repro.location.dlm.DlmAgent` — the grid-based scheme of
  Xue et al. the paper builds on, running over the network.
* :class:`~repro.core.als.AlsAgent` — the paper's anonymous variant, a
  ``DlmAgent`` that replaces the cleartext packets.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from repro.geo.vec import Position
from repro.net.node import Node
from repro.sim.engine import Simulator

__all__ = ["LocationService", "LocationCallback", "OracleLocationService"]

LocationCallback = Callable[[Optional[Position]], None]
"""Invoked with the destination's location, or None when lookup failed."""


class LocationService(Protocol):
    """Anything that can resolve a node identity to a location."""

    def lookup(self, requester: Node, identity: str, callback: LocationCallback) -> None:
        """Asynchronously resolve ``identity``; may call back immediately."""
        ...


class OracleLocationService:
    """An omniscient location database with optional staleness.

    ``staleness`` > 0 returns where the target was ``staleness`` seconds
    ago, modeling the periodic-update lag of a real location service
    without its message cost.
    """

    def __init__(self, sim: Simulator, staleness: float = 0.0) -> None:
        if staleness < 0:
            raise ValueError("staleness must be non-negative")
        self.sim = sim
        self.staleness = staleness
        self._nodes: Dict[str, Node] = {}
        self.lookups = 0

    def register(self, node: Node) -> None:
        self._nodes[node.identity] = node

    def register_all(self, nodes) -> None:
        for node in nodes:
            self.register(node)

    def lookup(self, requester: Node, identity: str, callback: LocationCallback) -> None:
        self.lookups += 1
        target = self._nodes.get(identity)
        if target is None:
            callback(None)
            return
        when = max(0.0, self.sim.now - self.staleness)
        callback(target.mobility.position_at(when))
