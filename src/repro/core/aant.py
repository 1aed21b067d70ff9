"""Authenticated ANT via ring signatures (paper Section 3.1.2).

A hello message is ring-signed over the sender's certificate plus ``k``
randomly chosen decoys, so a verifier learns "an authorized user sent
this" — banning the spoofing attacker who "could forge a lot of hello
messages with arbitrary pseudonyms" — while the sender stays
indistinguishable within a set of k+1 legitimate users.

Backends match the trapdoor factory: ``real`` runs RST ring signatures
over the node's :class:`~repro.crypto.certificates.KeyStore`; ``modeled``
carries a validity flag plus calibrated sizes/delays (the flag is what a
forger cannot produce).
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.cache import RING_VERIFY, memo
from repro.crypto.certificates import Certificate, CertificateAuthority, KeyStore
from repro.crypto.hashing import sha256
from repro.crypto.ring_signature import RingSignature, ring_sign, ring_verify
from repro.crypto.timing import DEFAULT_COST_MODEL, CryptoCostModel
from repro.core.config import AantConfig
from repro.geo.vec import Position

__all__ = [
    "AantAttachment",
    "AantAuthenticator",
    "hello_signing_bytes",
    "CertRequest",
    "CertReply",
]


# Certificate-fetch sub-protocol (paper Sec 4): "a sender may only specify
# identities or serial numbers of those certificates, and allow explicit
# request for required certificates in case the verifier does not have
# them.  The number of explicit requests are expected to decline
# significantly after the network boots up."
from repro.net.packet import Packet as _Packet


@dataclass
class CertRequest(_Packet):
    """A one-hop broadcast asking neighbors for missing certificates."""

    KIND = "aant.cert_request"

    subjects: Tuple[str, ...] = ()

    def header_bytes(self) -> int:
        return 20 + 1 + sum(len(s.encode("utf-8")) + 1 for s in self.subjects)

    def wire_view(self) -> dict:
        # Certificate subjects are public directory data; requesting them
        # reveals interest, not presence — same exposure as the ring list.
        return {"subjects": list(self.subjects)}


@dataclass
class CertReply(_Packet):
    """A one-hop broadcast carrying the requested certificates."""

    KIND = "aant.cert_reply"

    certificates: Tuple[Certificate, ...] = ()

    def header_bytes(self) -> int:
        return 20 + 1 + sum(c.byte_size() for c in self.certificates)

    def wire_view(self) -> dict:
        return {"subjects": [c.subject for c in self.certificates]}


def hello_signing_bytes(pseudonym: bytes, position: Position, timestamp: float) -> bytes:
    """Canonical byte image of a hello's signed fields.

    Position is quantized to centimetres so float representation cannot
    desynchronize signer and verifier.
    """
    return pseudonym + struct.pack(
        "!qqd", round(position.x * 100), round(position.y * 100), timestamp
    )


@dataclass
class AantAttachment:
    """What an authenticated hello carries besides the plain fields."""

    ring_size: int  # total members (k decoys + signer)
    extra_bytes: int  # wire overhead vs an unauthenticated hello
    signature: Optional[RingSignature] = None  # real mode
    ring_subjects: Tuple[str, ...] = ()  # certificate subjects, in ring order
    modeled_valid: bool = True  # modeled mode: forgeries carry False

    def wire_view(self) -> dict:
        """Sniffer view: the ring membership is public (it must be, for
        verification) — that is exactly why anonymity is k+1, not perfect."""
        return {
            "ring_size": self.ring_size,
            "ring_subjects": list(self.ring_subjects),
        }


class AantAuthenticator:
    """Signs and verifies hello messages for one node."""

    def __init__(
        self,
        config: AantConfig,
        mode: str = "modeled",
        cost_model: CryptoCostModel = DEFAULT_COST_MODEL,
        keystore: Optional[KeyStore] = None,
        ca: Optional[CertificateAuthority] = None,
        rng: Optional[random.Random] = None,
        memoize: bool = True,
    ) -> None:
        if mode not in ("modeled", "real"):
            raise ValueError(f"unknown AANT mode {mode!r}")
        if mode == "real" and (keystore is None or ca is None):
            raise ValueError("real AANT needs a keystore and the CA")
        self.config = config
        self.mode = mode
        self.cost = cost_model
        self.keystore = keystore
        self.ca = ca
        #: Crypto fast path switch; hits and misses charge identical
        #: CryptoCostModel delays, so it never changes simulated
        #: outcomes (see repro.crypto.cache).
        self.memoize = memoize
        #: Only real-mode *signing* draws randomness (decoy picking, ring
        #: glue); verification is deterministic, so the rng stays optional
        #: and :meth:`sign_hello` rejects a missing one at use.
        self.rng = rng

    # ------------------------------------------------------------------ sign
    def sign_hello(
        self, pseudonym: bytes, position: Position, timestamp: float
    ) -> tuple[AantAttachment, float]:
        """Produce the attachment for an outgoing hello.

        Returns ``(attachment, processing_delay_seconds)``.
        """
        k = self.config.ring_size
        extra = self.cost.aant_hello_extra_bytes(k + 1, self.config.attach_certificates)
        delay = self.cost.ring_sign_cost(k + 1)
        if self.mode == "modeled":
            return AantAttachment(ring_size=k + 1, extra_bytes=extra), delay

        assert self.keystore is not None
        if self.rng is None:
            raise ValueError(
                "real AANT signing requires an explicit rng (e.g. "
                "node.rng('aant')) so ring selection is reproducible "
                "from the master seed"
            )
        ring_certs = self.keystore.pick_ring(k, self.rng)
        signer_index = self.keystore.ring_index_of_self(ring_certs)
        message = hello_signing_bytes(pseudonym, position, timestamp)
        signature = ring_sign(
            message,
            [c.public_key for c in ring_certs],
            signer_index,
            self.keystore.private_key,
            rng=self.rng,
        )
        return (
            AantAttachment(
                ring_size=k + 1,
                extra_bytes=extra,
                signature=signature,
                ring_subjects=tuple(c.subject for c in ring_certs),
            ),
            delay,
        )

    # ---------------------------------------------------------------- verify
    def verify_hello(
        self,
        attachment: Optional[AantAttachment],
        pseudonym: bytes,
        position: Position,
        timestamp: float,
        cert_lookup: Optional[Sequence[Certificate]] = None,
    ) -> tuple[bool, float]:
        """Check an incoming hello's attachment.

        ``cert_lookup`` (real mode) supplies the ring certificates in
        order; when omitted, the verifier resolves subjects through its
        own keystore cache (paper: serials suffice once caches are warm).
        Returns ``(valid, processing_delay_seconds)``.

        Delay accounting: the full ``ring_verify_cost`` is charged only
        once every ring member's certificate is resolvable — a verifier
        that bails out before touching any modular arithmetic (missing
        attachment/signature, unknown decoy, truncated ring) has done no
        cryptographic work and charges nothing.  The earlier behaviour
        (charging up front, then returning early) overstated the CPU
        price of cold-cache hellos.
        """
        if attachment is None:
            return False, 0.0
        if self.mode == "modeled":
            return attachment.modeled_valid, self.cost.ring_verify_cost(
                max(attachment.ring_size, 1)
            )

        assert self.keystore is not None and self.ca is not None
        if attachment.signature is None:
            return False, 0.0
        certs: List[Certificate] = []
        if cert_lookup is not None:
            certs = list(cert_lookup)
        else:
            for subject in attachment.ring_subjects:
                cached = self.keystore.get(subject)
                if cached is None:
                    return False, 0.0  # unknown decoy: request-and-retry omitted
                certs.append(cached)
        if len(certs) != attachment.ring_size:
            return False, 0.0
        # All members resolvable: the cryptographic work happens (or is
        # memoized — either way the same virtual time is charged).
        delay = self.cost.ring_verify_cost(max(attachment.ring_size, 1))
        if not all(self.ca.verify(cert) for cert in certs):
            return False, delay
        message = hello_signing_bytes(pseudonym, position, timestamp)
        valid = self._ring_verify_cached(
            message, [c.public_key for c in certs], attachment.signature
        )
        return valid, delay

    def _ring_verify_cached(
        self, message: bytes, keys: List, signature: RingSignature
    ) -> bool:
        """RST ring verification through the deterministic memo cache.

        The key covers every input ``ring_verify`` reads: the message
        digest, the ring's public-key fingerprints *in order* (order is
        significant for RST), and the signature bytes.
        """
        key = (
            sha256(message),
            tuple(k.fingerprint() for k in keys),
            sha256(signature.to_bytes()),
        )
        return memo(RING_VERIFY).get_or_compute(
            key,
            lambda: ring_verify(message, keys, signature),
            self.memoize,
        )

    # ---------------------------------------------------------- cert fetch
    def missing_subjects(self, attachment: Optional[AantAttachment]) -> Tuple[str, ...]:
        """Ring subjects whose certificates we lack (real mode only).

        A non-empty result means verification cannot proceed yet; the
        router should fetch them via :class:`CertRequest` and retry.
        """
        if self.mode != "real" or attachment is None or self.keystore is None:
            return ()
        return tuple(
            subject
            for subject in attachment.ring_subjects
            if subject not in self.keystore
        )

    def certificates_for(self, subjects: Sequence[str]) -> List[Certificate]:
        """Certificates from our cache matching ``subjects`` (reply side)."""
        if self.keystore is None:
            return []
        found = []
        for subject in subjects:
            cert = self.keystore.get(subject)
            if cert is not None:
                found.append(cert)
        return found

    def accept_certificates(self, certificates: Sequence[Certificate]) -> int:
        """Validate against the CA and cache; returns how many were added."""
        if self.keystore is None or self.ca is None:
            return 0
        added = 0
        for cert in certificates:
            if cert.subject in self.keystore:
                continue
            if self.ca.verify(cert):
                self.keystore.add(cert)
                added += 1
        return added

    # ------------------------------------------------------------- anonymity
    def anonymity_set_size(self) -> int:
        """The (k+1)-anonymity guarantee of this configuration."""
        return self.config.ring_size + 1
