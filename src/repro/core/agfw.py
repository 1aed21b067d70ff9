"""Anonymous Greedy Forwarding — the paper's main protocol (Section 3.2).

The data header is ``<DATA, loc_d, n, trapdoor>``: destination *location*
in cleartext (greedy forwarding needs it), a next-hop *pseudonym* from
the ANT in place of any address, and a *trapdoor* in place of the
destination identity.  Every transmission is a MAC **broadcast** from
the ``ANONYMOUS`` source address, so no real MAC address ever appears
on the air.

Forwarding (paper Algorithm 3.2):

* a node owning the header pseudonym is the committed forwarder;
* outside the destination's radio range ("last hop region") it forwards
  greedily without touching the trapdoor — the crypto cost stays off the
  multi-hop path;
* inside the last hop region it first *tries opening the trapdoor*
  (8.5 ms private-key operation); success = it is the destination;
* a committed forwarder that can neither open nor find a closer neighbor
  performs the **last forwarding attempt**: a local broadcast with
  ``n = 0`` telling all receivers to try the trapdoor, then forwarding
  stops;
* reliability comes from network-layer ACKs (:mod:`repro.core.ack`),
  since broadcasts get no 802.11 ACK — the paper's Fig 1(a) ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.aant import AantAttachment, AantAuthenticator, CertReply, CertRequest
from repro.core.ack import AckManager
from repro.core.ant import AnonymousNeighborTable
from repro.core.config import AgfwConfig
from repro.core.freshness import STRATEGIES
from repro.core.pseudonym import LAST_ATTEMPT, PseudonymManager
from repro.core.trapdoor import Trapdoor, TrapdoorContents, TrapdoorFactory
from repro.geo.vec import Position
from repro.location.geocast import LocationAddressed
from repro.net.addresses import ANONYMOUS, BROADCAST
from repro.net.mac.frames import MacFrame
from repro.net.packet import Packet
from repro.routing.base import BaseRouter

__all__ = ["AntHello", "AgfwData", "AgfwAck", "AgfwRouter"]

_IP_HEADER = 20
_LOC_BYTES = 8
_PSEUDONYM_BYTES = 6
_ACK_REF_BYTES = 8


@dataclass
class AntHello(Packet):
    """``<HELLO, n, loc, ts>`` — no identity anywhere (Section 3.1.1)."""

    KIND = "agfw.hello"

    pseudonym: bytes = b""
    position: Position = field(default_factory=lambda: Position(0.0, 0.0))
    timestamp: float = 0.0
    velocity: Tuple[float, float] = (0.0, 0.0)
    auth: Optional[AantAttachment] = None

    def header_bytes(self) -> int:
        base = _IP_HEADER + _PSEUDONYM_BYTES + _LOC_BYTES + 4 + 8  # ts + velocity
        if self.auth is not None:
            base += self.auth.extra_bytes
        return base

    def wire_view(self) -> dict:
        """Sniffer view: a pseudonym-location pair, *no identity*."""
        view = {
            "pseudonym": self.pseudonym.hex(),
            "location": self.position.as_tuple(),
            "timestamp": self.timestamp,
        }
        if self.auth is not None:
            view["auth"] = self.auth.wire_view()
        return view


@dataclass
class AgfwData(Packet):
    """``<DATA, loc_d, n, trapdoor>`` (+ optional piggybacked ACK refs).

    The perimeter-mode fields (the paper's future-work extension) carry
    only *locations* — the entry point Lp, the best face crossing, and
    the previous transmitter position the right-hand rule sweeps from —
    never identities, so recovery does not weaken the anonymity argument.
    """

    KIND = "agfw.data"

    dest_location: Position = field(default_factory=lambda: Position(0.0, 0.0))
    next_pseudonym: bytes = LAST_ATTEMPT
    trapdoor: Optional[Trapdoor] = None
    ttl: int = 64
    ack_refs: Tuple[bytes, ...] = ()
    mode: str = "greedy"  # or "perimeter"
    entry_location: Optional[Position] = None
    face_point: Optional[Position] = None
    last_hop_position: Optional[Position] = None

    def header_bytes(self) -> int:
        trapdoor = self.trapdoor.size_bytes if self.trapdoor is not None else 0
        acks = (1 + _ACK_REF_BYTES * len(self.ack_refs)) if self.ack_refs else 0
        perimeter = 3 * _LOC_BYTES if self.mode == "perimeter" else 0
        return _IP_HEADER + _LOC_BYTES + _PSEUDONYM_BYTES + 1 + trapdoor + acks + perimeter

    def wire_view(self) -> dict:
        """Sniffer view: where the packet is going, nothing about *who*."""
        view = {
            "dest_location": self.dest_location.as_tuple(),
            "next_pseudonym": self.next_pseudonym.hex(),
            "trapdoor": self.trapdoor.wire_view() if self.trapdoor else None,
        }
        if self.mode == "perimeter":
            view["mode"] = "perimeter"
        return view


@dataclass
class AgfwAck(Packet):
    """A locally broadcast network-layer ACK carrying packet references."""

    KIND = "agfw.ack"

    refs: Tuple[bytes, ...] = ()

    def header_bytes(self) -> int:
        return _IP_HEADER + 1 + _ACK_REF_BYTES * len(self.refs)

    def wire_view(self) -> dict:
        return {"refs": [r.hex() for r in self.refs]}


class AgfwRouter(BaseRouter):
    """One node's anonymous geographic routing agent."""

    def __init__(
        self,
        node,
        location_service,
        config: Optional[AgfwConfig] = None,
        tracer=None,
        authenticator: Optional[AantAuthenticator] = None,
        trapdoor_factory: Optional[TrapdoorFactory] = None,
        memoize: bool = True,
    ) -> None:
        config = config or AgfwConfig()
        super().__init__(node, location_service, config, tracer)
        # Nothing on an AGFW node reads ``frame.src`` (ALS and AANT ride
        # on this router), so its frames need not name it.
        node.mac.source = ANONYMOUS
        self.config: AgfwConfig = config
        self.ant = AnonymousNeighborTable(config.neighbor_timeout)
        self.pseudonyms = PseudonymManager(
            node.identity, node.rng("pseudonym"), memory=config.pseudonym_memory
        )
        self.strategy = STRATEGIES[config.next_hop_strategy]
        self.authenticator = authenticator
        self.trapdoors = trapdoor_factory or TrapdoorFactory(
            config.crypto_mode,
            config.cost_model,
            # Only real sealing draws (PKCS#1 padding): modeled crypto
            # creates no stream, and streams are seeded by name, so
            # leaving this one out moves no other.
            node.rng("trapdoor") if config.crypto_mode == "real" else None,
            memoize=memoize,
        )
        self.acks = AckManager(
            self.sim,
            config,
            retransmit=self._retransmit,
            give_up=self._on_ack_give_up,
            send_ack=self._send_standalone_ack,
        )
        self._handled_uids: set[int] = set()
        self._accepted_uids: set[int] = set()
        self._last_attempt_uids: set[int] = set()
        self._reroutes: Dict[int, int] = {}
        self._hellos_awaiting_certs: list[AntHello] = []
        self.cert_requests_sent = 0
        self.cert_replies_sent = 0
        self._purge_tick()

    def _purge_tick(self) -> None:
        self.ant.purge(self.sim.now)
        self.sim.schedule(self.config.beacon_interval, self._purge_tick, name="agfw.purge")

    # ------------------------------------------------------ lifecycle faults
    def on_fault_down(self) -> None:
        """Crash: ANT entries, pending NL-ACK watches, buffered ACK refs,
        reroute counters, and hellos parked for certificates are all
        volatile — none of it survives a power cycle.  The duplicate-uid
        sets are kept (they stand in for an on-flash duplicate cache;
        clearing them would double-count deliveries on re-reception)."""
        super().on_fault_down()
        self.ant.clear()
        self.acks.reset()
        self._hellos_awaiting_certs.clear()
        self._reroutes.clear()

    # ============================================================= beaconing
    def send_beacon(self) -> None:
        pseudonym = self.pseudonyms.new_pseudonym()
        now = self.sim.now
        position = self.position
        velocity = self.node.mobility.velocity_at(now)
        if self.authenticator is None:
            hello = AntHello(
                pseudonym=pseudonym,
                position=position,
                timestamp=now,
                velocity=velocity,
                uid=self.node.next_packet_uid(),
            )
            self.node.mac.send(hello, BROADCAST)
            return
        attachment, delay = self.authenticator.sign_hello(pseudonym, position, now)
        hello = AntHello(
            pseudonym=pseudonym,
            position=position,
            timestamp=now,
            velocity=velocity,
            auth=attachment,
            uid=self.node.next_packet_uid(),
        )
        # Ring signing is CPU work; the hello leaves after it completes.
        # A crash during the signing window discards the half-signed hello
        # (the epoch check), matching the volatile-state contract.
        epoch = self._fault_epoch

        def _transmit_signed() -> None:
            if self._fault_epoch == epoch:
                self.node.mac.send(hello, BROADCAST)

        self.sim.schedule(delay, _transmit_signed, name="aant.sign")

    # ============================================================== receive
    def on_packet(self, packet: Packet, frame: MacFrame) -> None:
        handler = self.packet_handlers.get(type(packet))
        if handler is not None:
            if isinstance(packet, LocationAddressed) and not self._location_packet_for_me(packet):
                return
            handler(packet, frame)
            return
        if isinstance(packet, AntHello):
            self._on_hello(packet)
        elif isinstance(packet, AgfwData):
            self._on_data(packet)
        elif isinstance(packet, AgfwAck):
            self.acks.on_ack_refs(packet.refs)
        elif isinstance(packet, CertRequest):
            self._on_cert_request(packet)
        elif isinstance(packet, CertReply):
            self._on_cert_reply(packet)

    def _location_packet_for_me(self, packet: LocationAddressed) -> bool:
        return (
            packet.next_pseudonym == LAST_ATTEMPT
            or self.pseudonyms.owns(packet.next_pseudonym)
        )

    # --------------------------------------------------------------- hellos
    def _on_hello(self, hello: AntHello) -> None:
        if self.authenticator is None:
            self.ant.update(hello.pseudonym, hello.position, self.sim.now, hello.velocity)
            return
        missing = self.authenticator.missing_subjects(hello.auth)
        if missing:
            # Paper Sec 4: fetch unknown decoy certificates and retry the
            # hello instead of silently rejecting an honest neighbor.
            self._hellos_awaiting_certs.append(hello)
            if len(self._hellos_awaiting_certs) > 32:
                self._hellos_awaiting_certs.pop(0)
            self.cert_requests_sent += 1
            self._trace("aant.cert_request", subjects=list(missing))
            # Ring subjects are decoy identities wire-visible *by design*:
            # the anonymous-authentication ring (paper Sec. 4) trades their
            # exposure for k-anonymity of the actual signer.
            request = CertRequest(subjects=missing, uid=self.node.next_packet_uid())
            self.node.mac.send(request, BROADCAST)
            return
        valid, delay = self.authenticator.verify_hello(
            hello.auth, hello.pseudonym, hello.position, hello.timestamp
        )
        epoch = self._fault_epoch

        def _apply() -> None:
            if self._fault_epoch != epoch:
                return  # crashed mid-verify: pre-crash state must not leak
            # An honest hello is stamped before it is received; a row from
            # the future would age negatively and overflow its freshness.
            if valid and hello.timestamp <= self.sim.now:
                self.ant.update(
                    hello.pseudonym, hello.position, hello.timestamp, hello.velocity
                )
            else:
                self.stats.drops_auth += 1
                self._trace("aant.reject", pseudonym=hello.pseudonym.hex())

        self.sim.schedule(delay, _apply, name="aant.verify")

    def _on_cert_request(self, request: CertRequest) -> None:
        if self.authenticator is None:
            return
        certificates = self.authenticator.certificates_for(request.subjects)
        if not certificates:
            return
        # Small random delay desynchronizes the (many) potential repliers.
        jitter = self._rng.uniform(0.001, 0.010)
        reply = CertReply(certificates=tuple(certificates), uid=self.node.next_packet_uid())
        self.cert_replies_sent += 1
        self.sim.schedule(
            jitter, lambda: self.node.mac.send(reply, BROADCAST), name="aant.cert_reply"
        )

    def _on_cert_reply(self, reply: CertReply) -> None:
        if self.authenticator is None:
            return
        added = self.authenticator.accept_certificates(reply.certificates)
        if added == 0 or not self._hellos_awaiting_certs:
            return
        # Retry the buffered hellos whose rings are now resolvable.  Stale
        # entries (still missing certs) stay buffered for the next reply.
        retry, keep = [], []
        for hello in self._hellos_awaiting_certs:
            if self.authenticator.missing_subjects(hello.auth):
                keep.append(hello)
            else:
                retry.append(hello)
        self._hellos_awaiting_certs = keep
        for hello in retry:
            self._on_hello(hello)

    # ----------------------------------------------------------------- data
    def _on_data(self, packet: AgfwData) -> None:
        if packet.ack_refs:
            self.acks.on_ack_refs(packet.ack_refs)
        pseudonym = packet.next_pseudonym

        if self.pseudonyms.owns(pseudonym):
            if self.config.enable_ack:
                self._queue_ack(packet)
            if packet.uid in self._handled_uids:
                return  # duplicate: our earlier ACK was lost; it was re-queued above
            self._handled_uids.add(packet.uid)
            self._process_as_committed_forwarder(packet)
        elif pseudonym == LAST_ATTEMPT:
            if packet.uid in self._last_attempt_uids:
                return
            self._last_attempt_uids.add(packet.uid)
            self._try_open_then(
                packet,
                on_opened=self._accept,
                on_failed=lambda p: self._trace("agfw.discard", packet_uid=p.uid),
            )
        # else: not addressed to us — discard silently (Algorithm 3.2).

    def _process_as_committed_forwarder(self, packet: AgfwData) -> None:
        if self.in_last_hop_region(packet.dest_location):
            self._try_open_then(
                packet,
                on_opened=self._accept,
                on_failed=self._forward_or_last_attempt,
            )
        else:
            if not self._dispatch_forward(packet):
                # "Forwarding stops; recovery mode could be further
                # considered" — unless perimeter recovery is enabled above.
                self.stats.drops_deadend += 1
                self._trace("route.drop", reason="deadend", packet_uid=packet.uid)

    def _forward_or_last_attempt(self, packet: AgfwData) -> None:
        if not self._dispatch_forward(packet):
            self._last_forwarding_attempt(packet)

    def _dispatch_forward(self, packet: AgfwData) -> bool:
        """Greedy forwarding with optional perimeter recovery.

        Returns False only when the packet could not be handed to anyone
        (true dead end, perimeter included).
        """
        if packet.mode == "perimeter" and self.config.enable_perimeter:
            own = self.position
            assert packet.entry_location is not None
            if own.distance2_to(packet.dest_location) < packet.entry_location.distance2_to(
                packet.dest_location
            ):
                # Closer than where perimeter mode began: back to greedy.
                packet = packet.clone_for_forwarding(
                    mode="greedy",
                    entry_location=None,
                    face_point=None,
                    last_hop_position=None,
                )
            else:
                return self._perimeter_forward(packet)
        if self._try_forward(packet):
            return True
        if self.config.enable_perimeter:
            perimeter = packet.clone_for_forwarding(
                mode="perimeter",
                entry_location=self.position,
                face_point=None,
                last_hop_position=None,
            )
            return self._perimeter_forward(perimeter)
        return False

    def _perimeter_forward(self, packet: AgfwData) -> bool:
        """One face-routing hop on the Gabriel-planarized ANT.

        Identical to GPSR's perimeter mode except the next hop is named
        by pseudonym and the frame is a local broadcast — the recovery
        inherits AGFW's anonymity properties wholesale.
        """
        from repro.routing.planar import (
            crossing_point,
            gabriel_neighbors,
            right_hand_neighbor,
        )

        if packet.ttl <= 0:
            self.stats.drops_ttl += 1
            self._trace("route.drop", reason="ttl", packet_uid=packet.uid)
            return True  # consumed
        own = self.position
        neighbors = [
            (e.pseudonym, e.position) for e in self.ant.entries(self.sim.now)
        ]
        planar = gabriel_neighbors(own, neighbors)
        if not planar:
            return False
        reference = packet.last_hop_position or packet.dest_location
        pseudonym, next_pos = right_hand_neighbor(own, reference, planar)

        assert packet.entry_location is not None
        cross = crossing_point(own, next_pos, packet.entry_location, packet.dest_location)
        if cross is not None:
            previous = packet.face_point
            if previous is None or cross.distance2_to(packet.dest_location) < previous.distance2_to(
                packet.dest_location
            ):
                packet = packet.clone_for_forwarding(face_point=cross)
                pseudonym, next_pos = right_hand_neighbor(
                    own, packet.dest_location, planar
                )

        outgoing = packet.clone_for_forwarding(
            next_pseudonym=pseudonym,
            ttl=packet.ttl - 1,
            last_hop_position=own,
            ack_refs=self.acks.take_piggyback_refs(),
        )
        self._trace(
            "route.forward",
            packet_uid=packet.uid,
            next_pseudonym=pseudonym.hex(),
            mode="perimeter",
        )
        self.node.mac.send(outgoing, BROADCAST)
        self.stats.forwarded += 1
        if self.config.enable_ack:
            assert outgoing.trapdoor is not None
            self.acks.watch(outgoing, outgoing.trapdoor.ref_bytes())
        return True

    # ------------------------------------------------------------ trapdoors
    def _try_open_then(self, packet: AgfwData, on_opened, on_failed) -> None:
        """Charge the private-key delay, then branch on the outcome."""
        private_key = (
            self.node.keystore.private_key if self.node.keystore is not None else None
        )
        assert packet.trapdoor is not None
        contents, delay = self.trapdoors.try_open(
            packet.trapdoor, self.node.identity, private_key
        )
        epoch = self._fault_epoch

        def _done() -> None:
            if self._fault_epoch != epoch:
                return  # crashed while the private-key op was in flight
            if contents is not None:
                on_opened(packet, contents)
            else:
                on_failed(packet)

        self.sim.schedule(delay, _done, name="agfw.open")

    def _accept(self, packet: AgfwData, contents: TrapdoorContents) -> None:
        if packet.uid in self._accepted_uids:
            self.stats.duplicates += 1
            return
        self._accepted_uids.add(packet.uid)
        self._trace_app_recv(packet.uid)
        self._trace(
            "agfw.accept",
            packet_uid=packet.uid,
            src_identity=contents.src_identity,
        )

    # ----------------------------------------------------------- forwarding
    def _try_forward(self, packet: AgfwData) -> bool:
        """Greedy step over the ANT; returns False at a local maximum."""
        if packet.ttl <= 0:
            self.stats.drops_ttl += 1
            self._trace("route.drop", reason="ttl", packet_uid=packet.uid)
            return True  # consumed (dropped), no last-attempt escalation
        now = self.sim.now
        own = self.position
        candidates = self.ant.candidates_towards(packet.dest_location, own, now)
        entry = self.strategy(
            own, packet.dest_location, candidates, now, self.config.neighbor_timeout
        )
        if entry is None:
            return False
        outgoing = packet.clone_for_forwarding(
            next_pseudonym=entry.pseudonym,
            ttl=packet.ttl - 1,
            ack_refs=self.acks.take_piggyback_refs(),
        )
        self._trace(
            "route.forward",
            packet_uid=packet.uid,
            next_pseudonym=entry.pseudonym.hex(),
        )
        self.node.mac.send(outgoing, BROADCAST)
        self.stats.forwarded += 1
        if self.config.enable_ack:
            assert outgoing.trapdoor is not None
            self.acks.watch(outgoing, outgoing.trapdoor.ref_bytes())
        return True

    def _last_forwarding_attempt(self, packet: AgfwData) -> None:
        """Local broadcast with n = 0: everyone tries the trapdoor, then stop."""
        outgoing = packet.clone_for_forwarding(
            next_pseudonym=LAST_ATTEMPT, ttl=max(packet.ttl - 1, 0), ack_refs=()
        )
        self._trace("agfw.last_attempt", packet_uid=packet.uid)
        self.node.mac.send(outgoing, BROADCAST)

    # -------------------------------------------------------- reliability
    def _queue_ack(self, packet: AgfwData) -> None:
        assert packet.trapdoor is not None
        self.acks.queue_ack(packet.trapdoor.ref_bytes())

    def _send_standalone_ack(self, refs: Tuple[bytes, ...]) -> None:
        ack = AgfwAck(refs=refs, uid=self.node.next_packet_uid())
        self.node.mac.send(ack, BROADCAST)

    def _retransmit(self, packet: AgfwData) -> None:
        self._trace("agfw.retransmit", packet_uid=packet.uid)
        self.node.mac.send(packet, BROADCAST)

    def _on_ack_give_up(self, packet: AgfwData, ref: bytes) -> None:
        """The committed forwarder never confirmed: evict its pseudonym and
        try once or twice through someone else (mirrors GPSR's reaction to
        MAC-level failures)."""
        self.ant.remove(packet.next_pseudonym)
        attempts = self._reroutes.get(packet.uid, 0)
        if attempts < 2:
            self._reroutes[packet.uid] = attempts + 1
            if self._dispatch_forward(packet):
                return
            if self.in_last_hop_region(packet.dest_location):
                self._last_forwarding_attempt(packet)
                return
        self.stats.drops_mac += 1
        self._trace("route.drop", reason="nl_ack", packet_uid=packet.uid)

    # ------------------------------------------------------------ originate
    def _originate(
        self, dest_identity: str, dest_location: Position, payload_bytes: int
    ) -> Optional[int]:
        dest_public_key = None
        if self.trapdoors.mode == "real":
            if self.node.keystore is None:
                raise RuntimeError("real crypto mode requires node keystores")
            cert = self.node.keystore.get(dest_identity)
            if cert is None:
                self.stats.drops_no_location += 1
                self._trace("route.drop", reason="no_certificate", dest=dest_identity)
                return None
            dest_public_key = cert.public_key
        contents = TrapdoorContents(
            src_identity=self.node.identity,
            src_location=self.position,
            timestamp=self.sim.now,
        )
        trapdoor, seal_delay = self.trapdoors.seal(
            dest_identity, dest_public_key, contents
        )
        packet = AgfwData(
            payload_bytes=payload_bytes,
            dest_location=dest_location,
            trapdoor=trapdoor,
            ttl=self.config.data_ttl,
            uid=self.node.next_packet_uid(),
        )
        self._trace_app_send(packet.uid, dest_identity, payload_bytes)
        self._handled_uids.add(packet.uid)
        epoch = self._fault_epoch

        def _launch() -> None:
            if self._fault_epoch != epoch:
                return  # crashed while sealing the trapdoor
            if dest_identity == self.node.identity:  # degenerate loopback
                self._accept(packet, contents)
                return
            if not self._dispatch_forward(packet):
                if self.in_last_hop_region(dest_location):
                    self._last_forwarding_attempt(packet)
                else:
                    self.stats.drops_deadend += 1
                    self._trace("route.drop", reason="deadend", packet_uid=packet.uid)

        self.sim.schedule(seal_delay, _launch, name="agfw.seal")
        return packet.uid

    # ------------------------------------------------------------- geocast
    def forward_location_packet(self, packet: LocationAddressed, deliver_local) -> None:
        """Route a service packet toward its target location (ALS transport).

        ``deliver_local`` fires when this node is the local maximum — the
        service agent decides whether the packet has "arrived".
        """
        if packet.ttl <= 0:
            self.stats.drops_ttl += 1
            return
        now = self.sim.now
        own = self.position
        candidates = self.ant.candidates_towards(packet.target_location, own, now)
        entry = self.strategy(
            own, packet.target_location, candidates, now, self.config.neighbor_timeout
        )
        if entry is None:
            deliver_local(packet)
            return
        outgoing = packet.clone_for_forwarding(
            next_pseudonym=entry.pseudonym, ttl=packet.ttl - 1
        )
        self.node.mac.send(outgoing, BROADCAST)
