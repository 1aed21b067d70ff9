"""Passive eavesdroppers.

A sniffer is a radio at a fixed (or mobile) position that records every
frame transmitted within its listening range.  It is *honest*: it only
reads what is physically on the air — each packet's ``wire_view()``
(cleartext header fields) plus the physical-layer observables every
receiver gets for free (time of transmission, and the fact that the
transmitter is within listening range).  Sim-only bookkeeping fields
(trapdoor plaintexts, modeled-crypto seals) are never touched.

``GlobalSniffer`` models the paper's strongest passive adversary — a
coalition covering the whole field ("location sniffers are freely able
to exchange their observation data").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.geo.vec import Position
from repro.sim.trace import TraceRecord, Tracer

__all__ = ["Observation", "Sniffer", "GlobalSniffer"]


@dataclass(frozen=True)
class Observation:
    """One overheard frame."""

    time: float
    frame_kind: str
    packet_kind: Optional[str]
    wire: Dict[str, Any]
    tx_position: Optional[Position]
    """Where the transmitter was.  Only populated when ``localize`` is on,
    modeling an adversary that can direction-find / multilaterate the
    transmitter — the paper's threat (1): 'observe the interested node's
    location if it happens to be inside the radio range'."""


class Sniffer:
    """A single passive listener at a fixed position."""

    def __init__(
        self,
        tracer: Tracer,
        position: Position,
        listen_range: float = 250.0,
        localize: bool = True,
    ) -> None:
        self.position = position
        self.listen_range = listen_range
        self.localize = localize
        self.observations: List[Observation] = []
        tracer.subscribe("phy.tx", self._on_tx)

    def _in_range(self, tx_pos: Position) -> bool:
        return self.position.distance2_to(tx_pos) <= self.listen_range**2

    def _on_tx(self, record: TraceRecord) -> None:
        tx_pos = Position(*record.data["pos"])
        if not self._in_range(tx_pos):
            return
        packet = record.data.get("packet_obj")
        wire: Dict[str, Any] = {}
        packet_kind = None
        if packet is not None:
            packet_kind = packet.kind
            view = getattr(packet, "wire_view", None)
            wire = view() if callable(view) else {}
        self.observations.append(
            Observation(
                time=record.time,
                frame_kind=record.data["frame_kind"],
                packet_kind=packet_kind,
                wire=wire,
                tx_position=tx_pos if self.localize else None,
            )
        )

    def __len__(self) -> int:
        return len(self.observations)


class GlobalSniffer(Sniffer):
    """A field-wide coalition of sniffers (sees every transmission)."""

    def __init__(self, tracer: Tracer, localize: bool = True) -> None:
        super().__init__(
            tracer, Position(0.0, 0.0), listen_range=float("inf"), localize=localize
        )

    def _in_range(self, tx_pos: Position) -> bool:
        return True
