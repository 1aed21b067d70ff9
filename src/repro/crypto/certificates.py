"""Certificates and a certification authority.

The paper assumes "each node has a valid certificate signed by a trusted
third party like a certification authority (CA)" and that nodes retrieve
enough other certificates beforehand for ring-signature use.  This module
provides that PKI substrate:

* :class:`CertificateAuthority` — issues and verifies certificates,
* :class:`Certificate` — binds a node identity to an RSA public key,
* :class:`KeyStore` — a node's local collection of certificates, with the
  random decoy selection the AANT needs ("the sender should randomly
  select k public keys among all valid users").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.crypto.cache import CERT_VERIFY, memo
from repro.crypto.hashing import sha256
from repro.crypto.rsa import (
    CryptoError,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
)

__all__ = ["Certificate", "CertificateAuthority", "KeyStore", "CertificateError"]


class CertificateError(CryptoError):
    """Certificate validation failure."""


@dataclass(frozen=True)
class Certificate:
    """A signed binding of ``subject`` (node identity) to ``public_key``.

    ``serial`` is unique per CA; the paper suggests transmitting serials
    instead of full certificates once neighbors have warmed their caches.
    """

    subject: str
    public_key: RsaPublicKey
    issuer: str
    serial: int
    not_before: float
    not_after: float
    signature: bytes
    #: Lazily cached :meth:`fingerprint` (excluded from eq/hash/repr).
    _fp: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def fingerprint(self) -> bytes:
        """A stable digest over the full certificate (TBS body + signature).

        Keys the CA-verification memo cache: two certificates with equal
        fingerprints are byte-identical, so a cached verification verdict
        transfers exactly.  Computed once per instance.
        """
        if self._fp is None:
            object.__setattr__(self, "_fp", sha256(self.tbs_bytes(), self.signature))
        return self._fp  # type: ignore[return-value]

    def tbs_bytes(self) -> bytes:
        """The to-be-signed canonical serialization."""
        return _tbs_bytes(
            self.subject,
            self.public_key,
            self.issuer,
            self.serial,
            self.not_before,
            self.not_after,
        )

    def byte_size(self) -> int:
        """Approximate wire size: TBS body plus the CA signature."""
        return len(self.tbs_bytes()) + len(self.signature)

    def is_valid_at(self, time: float) -> bool:
        return self.not_before <= time <= self.not_after


def _tbs_bytes(
    subject: str,
    public_key: RsaPublicKey,
    issuer: str,
    serial: int,
    not_before: float,
    not_after: float,
) -> bytes:
    subject_b = subject.encode("utf-8")
    issuer_b = issuer.encode("utf-8")
    return b"".join(
        [
            len(subject_b).to_bytes(2, "big"),
            subject_b,
            public_key.to_bytes(),
            len(issuer_b).to_bytes(2, "big"),
            issuer_b,
            serial.to_bytes(8, "big"),
            int(not_before * 1000).to_bytes(8, "big", signed=True),
            int(not_after * 1000).to_bytes(8, "big", signed=True),
        ]
    )


class CertificateAuthority:
    """A trusted third party issuing node certificates.

    The CA is an *offline* entity in the paper's model: nodes obtain
    certificates before entering the network.  Simulations therefore run
    the CA once at scenario setup.
    """

    def __init__(
        self,
        name: str = "repro-ca",
        key_bits: int = 768,
        rng: Optional[random.Random] = None,
        memoize: bool = True,
    ) -> None:
        if rng is None:
            raise ValueError(
                "CertificateAuthority requires an explicit rng (e.g. "
                "rngs.stream('ca')) so CA and node keys are reproducible "
                "from the master seed"
            )
        self.name = name
        self.memoize = memoize
        self._rng = rng
        self._key = generate_keypair(key_bits, self._rng)
        self._public_key = self._key.public()  # one instance, cached fingerprint
        self._next_serial = 1
        self._issued: Dict[int, Certificate] = {}
        self._revoked: set[int] = set()

    @property
    def public_key(self) -> RsaPublicKey:
        return self._public_key

    def issue(
        self,
        subject: str,
        public_key: RsaPublicKey,
        not_before: float = 0.0,
        not_after: float = float("inf"),
    ) -> Certificate:
        """Issue a certificate for ``subject``'s public key."""
        if not_after <= not_before:
            raise ValueError("certificate validity window is empty")
        serial = self._next_serial
        self._next_serial += 1
        # Encode an unbounded validity as a large sentinel for serialization.
        bounded_after = min(not_after, 2**40)
        tbs = _tbs_bytes(subject, public_key, self.name, serial, not_before, bounded_after)
        cert = Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=serial,
            not_before=not_before,
            not_after=bounded_after,
            signature=self._key.sign(tbs),
        )
        self._issued[serial] = cert
        return cert

    def enroll(self, subject: str, key_bits: int = 512) -> tuple[RsaPrivateKey, Certificate]:
        """Generate a key pair for ``subject`` and certify it in one step."""
        key = generate_keypair(key_bits, self._rng)
        return key, self.issue(subject, key.public())

    def revoke(self, serial: int) -> None:
        if serial not in self._issued:
            raise CertificateError(f"unknown serial {serial}")
        self._revoked.add(serial)

    def is_revoked(self, serial: int) -> bool:
        return serial in self._revoked

    def verify(self, cert: Certificate, at_time: Optional[float] = None) -> bool:
        """Check signature, issuer, validity window, and revocation.

        Only the expensive, *pure* part — the RSA signature check over
        the certificate bytes — is memoized (keyed by the CA key's
        fingerprint and the certificate's digest).  Revocation and
        validity-window checks are stateful/time-dependent and always
        run fresh, so revoking a certificate takes effect immediately
        even with a warm cache.
        """
        if cert.issuer != self.name:
            return False
        if cert.serial in self._revoked:
            return False
        if at_time is not None and not cert.is_valid_at(at_time):
            return False
        key = (self.public_key.fingerprint(), cert.fingerprint())
        return memo(CERT_VERIFY).get_or_compute(
            key,
            lambda: self.public_key.verify(cert.tbs_bytes(), cert.signature),
            self.memoize,
        )


class KeyStore:
    """A node's local certificate cache plus its own key material.

    Supports the AANT decoy-selection step and the optimization of
    referring to cached certificates by serial number.
    """

    def __init__(
        self,
        identity: str,
        private_key: RsaPrivateKey,
        certificate: Certificate,
    ) -> None:
        if certificate.subject != identity:
            raise CertificateError("certificate subject does not match identity")
        if certificate.public_key != private_key.public():
            raise CertificateError("certificate key does not match private key")
        self.identity = identity
        self.private_key = private_key
        self.certificate = certificate
        self._certs: Dict[str, Certificate] = {identity: certificate}
        self._by_serial: Dict[int, Certificate] = {certificate.serial: certificate}

    # ----------------------------------------------------------------- cache
    def add(self, cert: Certificate) -> None:
        self._certs[cert.subject] = cert
        self._by_serial[cert.serial] = cert

    def add_all(self, certs: Iterable[Certificate]) -> None:
        for cert in certs:
            self.add(cert)

    def get(self, subject: str) -> Optional[Certificate]:
        return self._certs.get(subject)

    def get_by_serial(self, serial: int) -> Optional[Certificate]:
        return self._by_serial.get(serial)

    def subjects(self) -> List[str]:
        return sorted(self._certs)

    def __len__(self) -> int:
        return len(self._certs)

    def __contains__(self, subject: str) -> bool:
        return subject in self._certs

    # ----------------------------------------------------------- ring decoys
    def pick_ring(self, k: int, rng: random.Random) -> List[Certificate]:
        """Pick the signer's cert plus ``k`` random decoys, in random order.

        Random order matters: a fixed signer position would leak the
        signer.  Raises when fewer than ``k`` other certificates are cached
        — the paper assumes nodes pre-fetch enough certificates.
        """
        others = [c for s, c in self._certs.items() if s != self.identity]
        if k < 0:
            raise ValueError("k must be non-negative")
        if len(others) < k:
            raise CertificateError(
                f"need {k} decoy certificates, only {len(others)} cached"
            )
        ring = rng.sample(others, k) + [self.certificate]
        rng.shuffle(ring)
        return ring

    def ring_index_of_self(self, ring: Sequence[Certificate]) -> int:
        """The signer's position inside a ring produced by :meth:`pick_ring`."""
        for index, cert in enumerate(ring):
            if cert.subject == self.identity:
                return index
        raise CertificateError("own certificate not present in ring")
