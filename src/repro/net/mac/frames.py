"""MAC frames: the unit the radio medium actually carries.

A frame wraps at most one network-layer :class:`~repro.net.packet.Packet`
(control frames carry none).  ``nav`` is the duration field other
stations use for virtual carrier sensing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.net.addresses import MacAddress
from repro.net.mac.constants import Dot11Params
from repro.net.packet import Packet

__all__ = ["FrameKind", "MacFrame"]

_frame_uid = itertools.count(1)


class FrameKind(Enum):
    """802.11 frame types modeled by the DCF."""

    RTS = "rts"
    CTS = "cts"
    DATA = "data"
    ACK = "ack"


@dataclass(slots=True)
class MacFrame:
    """One frame on the air (``slots=True``: hot-path allocation).

    Every frame is constructed fresh and transmitted at most once; its
    ``uid`` comes from one process-wide counter, in construction order.
    """

    kind: FrameKind
    src: MacAddress
    dst: MacAddress
    packet: Optional[Packet] = None
    nav: float = 0.0
    uid: int = field(default_factory=lambda: next(_frame_uid))

    def duration(self, params: Dot11Params) -> float:
        """Airtime of this frame under ``params``."""
        if self.kind is FrameKind.RTS:
            return params.control_duration(params.rts_bytes)
        if self.kind is FrameKind.CTS:
            return params.control_duration(params.cts_bytes)
        if self.kind is FrameKind.ACK:
            return params.control_duration(params.ack_bytes)
        payload = self.packet.size_bytes() if self.packet is not None else 0
        return params.data_duration(payload, broadcast=self.dst.is_broadcast)

    @property
    def is_control(self) -> bool:
        return self.kind is not FrameKind.DATA

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = f", pkt={self.packet.kind}#{self.packet.uid}" if self.packet else ""
        return f"MacFrame({self.kind.value} {self.src}->{self.dst}{inner})"
