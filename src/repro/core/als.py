"""ALS — the Anonymous Location Service (paper Section 3.3, Algorithm 3.3).

ALS keeps DLM's grid/server-selection machinery but removes every
cleartext doublet:

* **RLU**   ``A -> S: <RLU, ssa(A), E_KB(A,B), E_KB(A, loc_A, ts)>`` —
  the updater's location travels encrypted under each *potential
  requester's* public key; the server stores ciphertext it cannot read,
  filed under the encrypted index ``E_KB(A,B)``.
* **LREQ**  ``B -> S: <LREQ, ssa(A), E_KB(A,B), loc_B>`` — the requester
  never reveals its identity, only the index (which it can compute with
  its own key pair) and a reply location.
* **LREP**  ``S -> B: <LREP, loc_B, E_KB(A, loc_A, ts)>`` — routed to a
  location; only B can decrypt the payload, which is also how B
  recognizes replies meant for it.

:class:`AlsAgent` is a :class:`~repro.location.dlm.DlmAgent`: it keeps
DLM's grid, server selection, geocast transport, timers and plain
update/request path, and adds only these three packets.  The plain path
is the paper's heterogeneous scheme (Sec. 4.3): a node that switches
privacy off sends DLM updates, and a lookup whose anonymous attempts
time out asks once the plain way before giving up.

The paper's stated limitation is implemented honestly: an updater must
enumerate ``potential_senders`` and push one entry per sender.  The
paper's *alternative* scheme (requester omits the index; server returns
every stored ciphertext, trading bandwidth for index privacy) is the
``include_index=False`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.trapdoor import Trapdoor, TrapdoorContents, TrapdoorFactory
from repro.crypto.hashing import hash_to_int, sha256
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.timing import DEFAULT_COST_MODEL, CryptoCostModel
from repro.geo.grid import Grid
from repro.geo.vec import Position
from repro.location.dlm import DlmAgent, DlmConfig, _PendingLookup
from repro.location.geocast import LocationAddressed
from repro.net.node import Node

__all__ = [
    "AlsConfig",
    "AlsUpdate",
    "AlsRequest",
    "AlsReply",
    "AlsAgent",
    "make_index",
]

_MODELED_INDEX_BYTES = 16


def make_index(
    updater: str,
    requester: str,
    requester_public_key: Optional[RsaPublicKey],
    mode: str = "modeled",
) -> bytes:
    """The deterministic index ``E_KB(A, B)``.

    Both A and B must derive the *same* bytes independently, so the
    encryption is deterministic: real mode applies the raw RSA
    permutation to a full-domain hash of ``(A, B)`` under B's public key.
    The paper itself notes the consequence — "a sophisticated attacker
    may find a matching identity with a certain probability ... by
    computing it exhaustively" — which ``include_index=False`` avoids.
    """
    material = f"als-index|{updater}|{requester}".encode("utf-8")
    if mode == "modeled" or requester_public_key is None:
        return sha256(material)[:_MODELED_INDEX_BYTES]
    value = hash_to_int(material, requester_public_key.bits - 1)
    encrypted = requester_public_key.apply(value)
    return encrypted.to_bytes(requester_public_key.byte_size, "big")


@dataclass
class AlsConfig(DlmConfig):
    """DLM parameters plus the ALS-specific switches."""

    include_index: bool = True
    """False = the paper's alternative: request without the index, server
    returns all stored ciphertexts (anonymity/overhead trade)."""


@dataclass
class AlsUpdate(LocationAddressed):
    """RLU: an (index, ciphertext) pair — nothing legible to the server."""

    KIND = "als.update"

    index: bytes = b""
    blob: Optional[Trapdoor] = None
    final_broadcast: bool = False

    def header_bytes(self) -> int:
        blob = self.blob.size_bytes if self.blob is not None else 0
        return super().header_bytes() + len(self.index) + blob

    def wire_view(self) -> dict:
        return {
            "index": self.index.hex(),
            "blob": self.blob.wire_view() if self.blob else None,
            "target_cell_hint": self.target_location.as_tuple(),
        }


@dataclass
class AlsRequest(LocationAddressed):
    """LREQ: the index (optional) and a bare reply location."""

    KIND = "als.request"

    index: Optional[bytes] = None
    reply_location: Position = field(default_factory=lambda: Position(0.0, 0.0))
    final_broadcast: bool = False

    def header_bytes(self) -> int:
        index = len(self.index) if self.index is not None else 0
        return super().header_bytes() + index + 8

    def wire_view(self) -> dict:
        return {
            "index": self.index.hex() if self.index is not None else None,
            "reply_location": self.reply_location.as_tuple(),
        }


@dataclass
class AlsReply(LocationAddressed):
    """LREP: ciphertexts routed to a location; only the requester can read."""

    KIND = "als.reply"

    blobs: Tuple[Trapdoor, ...] = ()
    final_broadcast: bool = False

    def header_bytes(self) -> int:
        return super().header_bytes() + sum(b.size_bytes for b in self.blobs)

    def wire_view(self) -> dict:
        return {"blobs": [b.wire_view() for b in self.blobs]}


@dataclass
class _StoredBlob:
    blob: Trapdoor
    stored_at: float


class AlsAgent(DlmAgent):
    """The anonymous location-service role of one node."""

    RNG_STREAM = "als.proto"
    EVENT_PREFIX = "als"
    PACKET_TYPES = (AlsUpdate, AlsRequest, AlsReply, *DlmAgent.PACKET_TYPES)

    config: AlsConfig

    def __init__(
        self,
        node: Node,
        router,
        grid: Grid,
        config: Optional[AlsConfig] = None,
        mode: str = "modeled",
        cost_model: CryptoCostModel = DEFAULT_COST_MODEL,
        trapdoor_factory: Optional[TrapdoorFactory] = None,
        install: bool = True,
    ) -> None:
        if mode not in ("modeled", "real"):
            raise ValueError(f"unknown ALS mode {mode!r}")
        self.mode = mode
        self.sealer = trapdoor_factory or TrapdoorFactory(mode, cost_model, node.rng("als"))
        self.potential_senders: List[str] = []
        #: Ciphertexts this node serves, filed under their index ``E_KB(A,B)``;
        #: the inherited ``store`` holds the plain entries of opted-out nodes.
        self.blobs: Dict[bytes, _StoredBlob] = {}
        #: The paper's heterogeneous update strategy: "once the node does
        #: not need a strict privacy protection any more, it can switch to
        #: a normal location service in order to reduce the effort needed
        #: to be accessed by potential senders."
        self.privacy_enabled: bool = True
        super().__init__(node, router, grid, config or AlsConfig(), install)

    def set_privacy(self, enabled: bool) -> None:
        """Switch between anonymous (ALS) and plain (DLM) updates."""
        self.privacy_enabled = enabled

    # -------------------------------------------------------------- updates
    def send_updates(self) -> None:
        """One encrypted entry per anticipated requester, per server grid.

        This is the limitation the paper concedes: "the updating node has
        to identify all its possible senders and has to update the
        location server accordingly."  With ``privacy_enabled`` off the
        node has opted out (paper Sec. 4.3) and sends DLM's plain updates:
        one cleartext entry per server grid, readable by anyone.
        """
        if not self.privacy_enabled:
            super().send_updates()
            return
        now = self.sim.now
        position = self.node.position
        cells = self.home_cells()
        for sender in self.potential_senders:
            index = self._index_for(sender)
            contents = TrapdoorContents(self.node.identity, position, now)
            blob, delay = self.sealer.seal(sender, self._public_key_of(sender), contents)
            self._charge(delay)
            for cell in cells:
                update = AlsUpdate(
                    target_location=self.grid.center_of(cell),
                    ttl=self.config.service_ttl,
                    index=index,
                    blob=blob,
                    uid=self.node.next_packet_uid(),
                )
                self._route(update)

    # -------------------------------------------------------------- lookups
    def lookup(
        self, requester: Node, identity: str, callback: Callable[[Optional[Position]], None]
    ) -> None:
        """Resolve ``identity`` anonymously; we are "B", the target is "A".

        Unlike DLM there is no short-cut through a local entry: a plain
        entry here belongs to an opted-out node, which is asked the plain
        way only after the anonymous attempts time out (:meth:`_fallback`).
        """
        pending = _PendingLookup(callback, self.config.request_retries)
        self._pending[identity] = pending
        self._send_request(identity, pending)

    def _send_request(self, identity: str, pending: _PendingLookup) -> None:
        cell = self.grid.home_cells(identity, self.config.servers_per_node)[0]
        index = None
        if self.config.include_index:
            index = make_index(identity, self.node.identity, self._own_public_key(), self.mode)
        request = AlsRequest(
            target_location=self.grid.center_of(cell),
            ttl=self.config.service_ttl,
            index=index,
            reply_location=self.node.position,
            uid=self.node.next_packet_uid(),
        )
        self._route(request)
        pending.timer = self.sim.schedule(
            self.config.request_timeout,
            lambda: self._on_lookup_timeout(identity),
            name="als.req_to",
        )

    def _fallback(self, identity: str, pending: _PendingLookup) -> bool:
        if pending.tried_plain:
            return False
        # Heterogeneous fallback (paper Sec. 4.3): the anonymous lookup
        # timed out, so the target may have opted out of privacy — ask
        # the plain way, accepting the deliberate identity exposure.
        pending.tried_plain = True
        super()._send_request(identity, pending)
        return True

    # ------------------------------------------------------------ transport
    def _arrived(self, packet: LocationAddressed) -> bool:
        if isinstance(packet, AlsReply):
            # Anonymity cuts both ways: the only way to know a reply is
            # ours is holding a pending lookup whose blob we can open.
            return bool(self._pending) and self._match_reply(packet) is not None
        return super()._arrived(packet)

    # ----------------------------------------------------------- server role
    def _consume(self, packet: LocationAddressed) -> None:
        if isinstance(packet, AlsUpdate):
            assert packet.blob is not None
            self.blobs[packet.index] = _StoredBlob(packet.blob, self.sim.now)
            self._stored(packet)
        elif isinstance(packet, AlsRequest):
            self._serve_blobs(packet)
        elif isinstance(packet, AlsReply):
            match = self._match_reply(packet)
            if match is not None:
                self._finish_lookup(*match)
        else:
            super()._consume(packet)

    def _serve_blobs(self, request: AlsRequest) -> None:
        blobs: List[Trapdoor] = []
        if request.index is not None:
            entry = self.blobs.get(request.index)
            if entry is not None and self._fresh(entry):
                blobs = [entry.blob]
        else:
            # Alternative scheme: hand back everything fresh we hold; the
            # requester decrypts what it can.  Overhead grows accordingly.
            blobs = [e.blob for e in self.blobs.values() if self._fresh(e)]
        if not blobs:
            return
        self.requests_served += 1
        reply = AlsReply(
            target_location=request.reply_location,
            ttl=self.config.service_ttl,
            blobs=tuple(blobs),
            uid=self.node.next_packet_uid(),
        )
        self._route(reply)

    def _match_reply(self, reply: AlsReply) -> Optional[tuple[str, Position]]:
        """Try opening each ciphertext; return (target identity, location)."""
        private_key = (
            self.node.keystore.private_key if self.node.keystore is not None else None
        )
        for blob in reply.blobs:
            contents, delay = self.sealer.try_open(blob, self.node.identity, private_key)
            self._charge(delay)
            if contents is not None and contents.src_identity in self._pending:
                return contents.src_identity, contents.src_location
        return None

    # --------------------------------------------------------------- helpers
    def _index_for(self, sender: str) -> bytes:
        return make_index(self.node.identity, sender, self._public_key_of(sender), self.mode)

    def _public_key_of(self, identity: str) -> Optional[RsaPublicKey]:
        if self.node.keystore is None:
            return None
        cert = self.node.keystore.get(identity)
        return cert.public_key if cert is not None else None

    def _own_public_key(self) -> Optional[RsaPublicKey]:
        if self.node.keystore is None:
            return None
        return self.node.keystore.private_key.public()

    def _charge(self, delay: float) -> None:
        """Account crypto CPU time (kept out of the event timeline: ALS is
        evaluated for message overhead, not latency — paper Sec 5)."""
        self.crypto_ops += 1
        self.crypto_time_charged += delay
