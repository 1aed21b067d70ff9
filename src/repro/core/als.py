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

The paper's stated limitation is implemented honestly: an updater must
enumerate ``potential_senders`` and push one entry per sender.  The
paper's *alternative* scheme (requester omits the index; server returns
every stored ciphertext, trading bandwidth for index privacy) is the
``include_index=False`` mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.trapdoor import Trapdoor, TrapdoorContents, TrapdoorFactory
from repro.crypto.hashing import hash_to_int, sha256
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.timing import DEFAULT_COST_MODEL, CryptoCostModel
from repro.geo.grid import Grid
from repro.geo.vec import Position
from repro.location.dlm import DlmConfig, DlmReply, DlmRequest, DlmUpdate, StoredLocation
from repro.location.geocast import LocationAddressed
from repro.net.addresses import BROADCAST, LAST_ATTEMPT
from repro.net.mac.frames import MacFrame
from repro.net.node import Node
from repro.sim.engine import Event

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

    max_reply_blobs: int = 8
    """Cap on ciphertexts per reply in the no-index mode."""


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


@dataclass
class _PendingLookup:
    target_identity: str
    callback: Callable[[Optional[Position]], None]
    retries_left: int
    timer: Optional[Event] = None
    tried_plain: bool = False


class AlsAgent:
    """The anonymous location-service role of one node."""

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
        self.node = node
        self.sim = node.sim
        self.router = router
        self.grid = grid
        self.config = config or AlsConfig()
        self.mode = mode
        self.cost = cost_model
        self.sealer = trapdoor_factory or TrapdoorFactory(mode, cost_model, node.rng("als"))
        self._rng: random.Random = node.rng("als.proto")
        self.potential_senders: List[str] = []
        self.store: Dict[bytes, _StoredBlob] = {}
        self.plain_store: Dict[str, StoredLocation] = {}
        self._pending: Dict[str, _PendingLookup] = {}
        self._seen_uids: set[int] = set()
        #: The paper's heterogeneous update strategy: "once the node does
        #: not need a strict privacy protection any more, it can switch to
        #: a normal location service in order to reduce the effort needed
        #: to be accessed by potential senders."
        self.privacy_enabled: bool = True
        self._started = False
        # Accounting for the overhead benchmark (paper Sec 5: ALS expected
        # to "elegantly degrade a bit" vs the plain location service).
        self.messages_sent = 0
        self.bytes_sent = 0
        self.crypto_ops = 0
        self.crypto_time_charged = 0.0
        self.updates_stored = 0
        self.requests_served = 0
        self.lookups_failed = 0
        if install:
            self.install()

    def install(self) -> None:
        packet_types = (AlsUpdate, AlsRequest, AlsReply, DlmUpdate, DlmRequest, DlmReply)
        for packet_type in packet_types:
            self.router.register_handler(packet_type, self._on_packet)
        self.router.location_service = self

    def set_privacy(self, enabled: bool) -> None:
        """Switch between anonymous (ALS) and plain (DLM-style) updates."""
        self.privacy_enabled = enabled

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        first = self._rng.uniform(0.0, self.config.update_interval)
        self.sim.schedule(first, self._update_tick, name="als.update")

    def _update_tick(self) -> None:
        self.send_updates()
        jitter = self.config.update_jitter
        interval = self.config.update_interval * self._rng.uniform(1 - jitter, 1 + jitter)
        self.sim.schedule(interval, self._update_tick, name="als.update")

    # -------------------------------------------------------------- updates
    def send_updates(self) -> None:
        """One encrypted entry per anticipated requester, per server grid.

        This is the limitation the paper concedes: "the updating node has
        to identify all its possible senders and has to update the
        location server accordingly."  With ``privacy_enabled`` off the
        node falls back to plain DLM-style updates: one cleartext entry
        per server grid, readable by anyone.
        """
        now = self.sim.now
        position = self.node.position
        cells = self.grid.home_cells(self.node.identity, self.config.servers_per_node)
        if not self.privacy_enabled:
            for cell in cells:
                update = DlmUpdate(
                    target_location=self.grid.center_of(cell),
                    ttl=self.config.service_ttl,
                    # Heterogeneous mode with privacy switched *off*: the
                    # node has opted out (paper Sec. 4.3), so it falls back
                    # to the plain DLM update and knowingly leaks.
                    identity=self.node.identity,
                    position=position,
                    timestamp=now,
                    uid=self.node.next_packet_uid(),
                )
                self._route(update)
            return
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
        """Resolve ``identity`` anonymously; we are "B", the target is "A"."""
        pending = _PendingLookup(identity, callback, self.config.request_retries)
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

    def _on_lookup_timeout(self, identity: str) -> None:
        pending = self._pending.get(identity)
        if pending is None:
            return
        if pending.retries_left > 0:
            pending.retries_left -= 1
            self._send_request(identity, pending)
            return
        if not pending.tried_plain:
            # Heterogeneous fallback: the target may have opted out of
            # privacy; ask the plain way before giving up.
            pending.tried_plain = True
            self._send_plain_request(identity, pending)
            return
        del self._pending[identity]
        self.lookups_failed += 1
        pending.callback(None)

    def _send_plain_request(self, identity: str, pending: _PendingLookup) -> None:
        cell = self.grid.home_cells(identity, self.config.servers_per_node)[0]
        request = DlmRequest(
            target_location=self.grid.center_of(cell),
            ttl=self.config.service_ttl,
            # Heterogeneous fallback (paper Sec. 4.3): the anonymous lookup
            # timed out, so the target may have opted out of privacy — ask
            # the plain way, accepting the deliberate identity exposure.
            requester_identity=self.node.identity,
            requester_location=self.node.position,
            target_identity=identity,
            uid=self.node.next_packet_uid(),
        )
        self._route(request)
        pending.timer = self.sim.schedule(
            self.config.request_timeout,
            lambda: self._on_lookup_timeout(identity),
            name="als.plain_req_to",
        )

    # ------------------------------------------------------------ transport
    def _route(self, packet: LocationAddressed) -> None:
        self.messages_sent += 1
        self.bytes_sent += packet.size_bytes()
        if self._arrived(packet):
            self._consume(packet)
        else:
            self.router.forward_location_packet(packet, self._on_local_max)

    def _arrived(self, packet: LocationAddressed) -> bool:
        if isinstance(packet, AlsReply):
            # Anonymity cuts both ways: the only way to know a reply is
            # ours is holding a pending lookup whose blob we can open.
            return bool(self._pending) and self._match_reply(packet) is not None
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
            return
        self.router.forward_location_packet(packet, self._on_local_max)

    def _on_local_max(self, packet: LocationAddressed) -> None:
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
        if isinstance(packet, AlsUpdate):
            self._store_update(packet)
        elif isinstance(packet, AlsRequest):
            self._serve_request(packet)
        elif isinstance(packet, AlsReply):
            self._finish_lookup(packet)
        elif isinstance(packet, DlmUpdate):
            self._store_plain_update(packet)
        elif isinstance(packet, DlmRequest):
            self._serve_plain_request(packet)
        elif isinstance(packet, DlmReply):
            self._finish_plain_lookup(packet)

    # ---------------------------------------------- heterogeneous (plain) path
    def _store_plain_update(self, update: DlmUpdate) -> None:
        self.plain_store[update.identity] = StoredLocation(
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

    def _serve_plain_request(self, request: DlmRequest) -> None:
        if request.requester_identity == self.node.identity:
            return
        entry = self.plain_store.get(request.target_identity)
        if entry is None or (self.sim.now - entry.stored_at) > self.config.entry_ttl:
            return
        self.requests_served += 1
        reply = DlmReply(
            target_location=request.requester_location,
            ttl=self.config.service_ttl,
            # Serving a *plain* request for a node that opted out of
            # privacy: the reply mirrors the DLM baseline leak.
            requester_identity=request.requester_identity,
            target_identity=entry.identity,
            target_position=entry.position,
            timestamp=entry.timestamp,
            uid=self.node.next_packet_uid(),
        )
        self._route(reply)

    def _finish_plain_lookup(self, reply: DlmReply) -> None:
        pending = self._pending.pop(reply.target_identity, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        pending.callback(reply.target_position)

    def _store_update(self, update: AlsUpdate) -> None:
        assert update.blob is not None
        self.store[update.index] = _StoredBlob(update.blob, self.sim.now)
        self.updates_stored += 1
        if self.config.replicate_in_cell and not update.final_broadcast:
            # Seed cell-mates so any current inhabitant can serve requests
            # (grid nodes collectively act as "the location server").
            clone = update.clone_for_forwarding(
                final_broadcast=True, next_pseudonym=LAST_ATTEMPT
            )
            self.node.mac.send(clone, BROADCAST)

    def _serve_request(self, request: AlsRequest) -> None:
        blobs: List[Trapdoor] = []
        if request.index is not None:
            entry = self.store.get(request.index)
            if entry is not None and self._fresh(entry):
                blobs = [entry.blob]
        else:
            # Alternative scheme: hand back everything fresh we hold; the
            # requester decrypts what it can.  Overhead grows accordingly.
            blobs = [
                e.blob for e in self.store.values() if self._fresh(e)
            ][: self.config.max_reply_blobs]
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

    def _finish_lookup(self, reply: AlsReply) -> None:
        match = self._match_reply(reply)
        if match is None:
            return
        identity, position = match
        pending = self._pending.pop(identity, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        pending.callback(position)

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

    def _fresh(self, entry: _StoredBlob) -> bool:
        return (self.sim.now - entry.stored_at) <= self.config.entry_ttl
