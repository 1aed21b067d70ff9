"""Network-layer packet base class.

Concrete PDU types live with the protocol that owns them (GPSR beacons in
:mod:`repro.routing.gpsr`, AGFW data/ACK in :mod:`repro.core.agfw`, ALS
messages in :mod:`repro.core.als`).  All of them share:

* a run-unique ``uid`` used by tracing and the metric collectors, drawn
  by the sending node from its medium's per-run counter
  (:meth:`repro.net.node.Node.next_packet_uid`),
* a byte-size contract (``header_bytes`` + ``payload_bytes``) so the MAC
  can compute airtime and the harness can account overhead,
* a ``clone_for_forwarding`` hook: forwarding mutates per-hop fields
  (e.g. the next-hop pseudonym) without aliasing the in-flight object.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, ClassVar

__all__ = ["Packet"]


@dataclass
class Packet:
    """Base network-layer PDU.

    Subclasses set ``KIND`` and implement :meth:`header_bytes`.
    ``payload_bytes`` is the application payload riding in the packet
    (zero for control messages).  ``uid`` is keyword-only and has no
    default: the routers drop a uid they have seen, so every packet must
    be given a fresh one (:meth:`repro.net.node.Node.next_packet_uid`).
    """

    KIND: ClassVar[str] = "packet"

    payload_bytes: int = 0
    uid: int = field(kw_only=True)

    def header_bytes(self) -> int:
        """Protocol header size in bytes (subclass responsibility)."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Total network-layer size: header plus payload."""
        return self.header_bytes() + self.payload_bytes

    @property
    def kind(self) -> str:
        return type(self).KIND

    def clone_for_forwarding(self, **changes: Any) -> "Packet":
        """A copy with per-hop fields replaced; the ``uid`` is preserved.

        Keeping the uid stable across hops is what lets the metric
        collectors recognize end-to-end delivery of "the same" packet.
        """
        return dataclasses.replace(self, **changes)
