"""Online metric collectors.

Collectors subscribe to the :class:`~repro.sim.trace.Tracer` and
accumulate incrementally, so long runs can disable trace retention
(``Tracer(keep=False)``) and still produce full metrics.

* :class:`DeliveryCollector` — the paper's two metrics: packet delivery
  fraction and end-to-end latency, matched on packet uid between
  ``app.send`` and ``app.recv`` records.
* :class:`OverheadCollector` — bytes/frames on the air by kind, MAC
  retries and drops: the byte-cost side of the anonymity trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.metrics.stats import Summary, summarize
from repro.sim.trace import TraceRecord, Tracer

__all__ = ["DeliveryCollector", "OverheadCollector"]


class DeliveryCollector:
    """Packet delivery fraction and end-to-end latency."""

    def __init__(self, tracer: Tracer) -> None:
        self._send_times: Dict[int, float] = {}
        self._latencies: List[float] = []
        self._seen_delivered: set[int] = set()
        self.duplicate_recv = 0
        self.unmatched_recv = 0
        tracer.subscribe("app.send", self._on_send)
        tracer.subscribe("app.recv", self._on_recv)

    def _on_send(self, record: TraceRecord) -> None:
        self._send_times[record.data["packet_uid"]] = record.time

    def _on_recv(self, record: TraceRecord) -> None:
        uid = record.data["packet_uid"]
        sent_at = self._send_times.pop(uid, None)
        if sent_at is None:
            if uid in self._seen_delivered:
                self.duplicate_recv += 1
            else:
                self.unmatched_recv += 1
            return
        self._seen_delivered.add(uid)
        self._latencies.append(record.time - sent_at)

    # ---------------------------------------------------------------- stats
    @property
    def sent(self) -> int:
        return len(self._send_times) + len(self._latencies)

    @property
    def delivered(self) -> int:
        return len(self._latencies)

    @property
    def delivery_fraction(self) -> float:
        """The paper's 'packet delivery fraction' (0 when nothing was sent)."""
        total = self.sent
        return self.delivered / total if total else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end delay over delivered packets (0 when none)."""
        if not self._latencies:
            return 0.0
        return sum(self._latencies) / len(self._latencies)

    def latency_summary(self) -> Optional[Summary]:
        return summarize(self._latencies) if self._latencies else None

    @property
    def latencies(self) -> List[float]:
        return list(self._latencies)


@dataclass
class _KindCounter:
    frames: int = 0
    bytes: int = 0


class OverheadCollector:
    """Airtime accounting by packet kind from ``phy.tx`` records."""

    def __init__(self, tracer: Tracer) -> None:
        self.by_kind: Dict[str, _KindCounter] = {}
        self.control_frames = 0  # RTS/CTS/ACK
        self.total_frames = 0
        tracer.subscribe("phy.tx", self._on_tx)

    def _on_tx(self, record: TraceRecord) -> None:
        self.total_frames += 1
        packet = record.data.get("packet_obj")
        if packet is None:
            self.control_frames += 1
            return
        counter = self.by_kind.setdefault(packet.kind, _KindCounter())
        counter.frames += 1
        counter.bytes += packet.size_bytes()

    def frames_of(self, kind: str) -> int:
        counter = self.by_kind.get(kind)
        return counter.frames if counter else 0

    def bytes_of(self, kind: str) -> int:
        counter = self.by_kind.get(kind)
        return counter.bytes if counter else 0

    @property
    def total_payload_bytes(self) -> int:
        return sum(c.bytes for c in self.by_kind.values())
