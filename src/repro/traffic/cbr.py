"""Constant-bit-rate traffic sources.

The paper's workload: "30 CBR traffic flows originated by 20 sending
nodes".  Each flow emits fixed-size packets at a fixed rate from a start
time until a stop time, the standard CBR source of the NS-2 CMU
scenarios (64-byte payloads at 2 Kbit/s, i.e. 4 packets/s).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.net.node import Node
from repro.sim.engine import Simulator

__all__ = ["CbrFlow", "CbrSource"]


@dataclass(frozen=True)
class CbrFlow:
    """A flow description (pure data; sources execute them)."""

    src_node_id: int
    dest_identity: str
    rate_pps: float = 4.0
    payload_bytes: int = 64
    start_time: float = 0.0
    stop_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.stop_time is not None and self.stop_time < self.start_time:
            raise ValueError("stop_time before start_time")


class CbrSource:
    """Drives one flow on its source node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow: CbrFlow,
        rng: Optional[random.Random] = None,
    ) -> None:
        if node.node_id != flow.src_node_id:
            raise ValueError("flow source does not match node")
        self.sim = sim
        self.node = node
        self.flow = flow
        self.rng = rng or node.rng(f"cbr:{flow.dest_identity}")
        self.packets_sent = 0
        self._interval = 1.0 / flow.rate_pps

    def start(self) -> None:
        """Arm the first transmission (with sub-interval jitter so flows
        sharing a start time do not synchronize their channel access)."""
        delay = max(0.0, self.flow.start_time - self.sim.now)
        delay += self.rng.uniform(0.0, self._interval)
        self.sim.schedule(delay, self._tick, name="cbr.tick")

    def _tick(self) -> None:
        if self.flow.stop_time is not None and self.sim.now > self.flow.stop_time:
            return
        router = self.node.router
        if router is not None:
            router.send_data(self.flow.dest_identity, self.flow.payload_bytes)
            self.packets_sent += 1
        self.sim.schedule(self._interval, self._tick, name="cbr.tick")
