"""Trapdoor construction and opening (paper Section 3.2).

The AGFW data header replaces the destination identity with a
*trapdoor*: ``trapdoor = KU_d(src, loc_s, tag_d)`` — data encrypted
under the destination's public key whose successful decryption tells a
node "you are the destination" (the tag) and hands it the source's
identity and location for replying.

Two backends, selected by ``AgfwConfig.crypto_mode``:

* ``real`` — actual RSA encryption from :mod:`repro.crypto.rsa`; opening
  genuinely attempts decryption and checks the tag.
* ``modeled`` — no math; the trapdoor records the intended recipient in
  a sealed, sim-only field and charges the paper's calibrated delays
  (0.5 ms seal, 8.5 ms open attempt).  Wire size is the paper's 64-byte
  bound either way.

Both backends expose identical semantics so protocol code is oblivious.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.cache import TRAPDOOR_OPEN, memo
from repro.crypto.hashing import sha256 as _sha256
from repro.crypto.rsa import DecryptionError, RsaPrivateKey, RsaPublicKey
from repro.crypto.timing import DEFAULT_COST_MODEL, CryptoCostModel
from repro.geo.vec import Position

__all__ = ["TrapdoorContents", "Trapdoor", "TrapdoorFactory"]

_TAG = b"DST!"  # the paper's tag_d: "Hey! You are the destination!"


@dataclass(frozen=True)
class TrapdoorContents:
    """What the destination learns by opening: the source and its location."""

    src_identity: str
    src_location: Position
    timestamp: float


@dataclass
class Trapdoor:
    """The opaque value riding in every AGFW data header.

    ``ciphertext`` is the real RSA block(s) in ``real`` mode, None in
    ``modeled`` mode.  ``_sealed_for`` / ``_contents`` are sim-only
    bookkeeping for the modeled backend — they are NOT part of the wire
    image and the adversary modules never read them (see
    :meth:`wire_view`).
    """

    size_bytes: int
    ciphertext: Optional[bytes] = None
    _sealed_for: Optional[str] = field(default=None, repr=False)
    _contents: Optional[TrapdoorContents] = field(default=None, repr=False)
    _ref: Optional[bytes] = field(default=None, repr=False)

    def wire_view(self) -> dict:
        """The sniffer's view: an opaque blob of a known size."""
        return {"opaque_bytes": self.size_bytes}

    def ref_bytes(self) -> bytes:
        """A short reference 'uniquely determining the packet' for NL-ACKs.

        Factory-sealed trapdoors carry a precomputed ``_ref``: a hash of
        the sealed tuple plus a per-factory sequence number, so refs are
        globally unique (only the originator seals, and ``(originator,
        seq)`` never repeats) and — critically — **deterministic**.

        The previous implementation used ``id(self)`` in modeled mode.
        Memory addresses are recycled: once a delivered packet's trapdoor
        was garbage-collected, a *new* trapdoor could be allocated at the
        same address while some node still held a pending ACK watch on
        the old ref — a cross-packet ACK collision whose occurrence
        depended on allocator state (and therefore on ``PYTHONHASHSEED``
        and process history, not on the simulation seed).  Loss-heavy
        runs, which churn trapdoors through retransmissions and
        give-ups, made runs visibly hash-seed dependent.

        Hand-built trapdoors (unit tests; every factory product carries
        ``_ref``) fall back to a hash of the stable sealed fields.  The
        historical ``id(self)`` fallback was the same bug in miniature —
        an interpreter heap address leaking into wire-visible ACK refs,
        which the run-time determinism check now catches as a trace
        difference between processes.
        """
        if self._ref is not None:
            return self._ref
        if self.ciphertext is not None:
            return _sha256(self.ciphertext)[:8]
        payload = repr((self.size_bytes, self._sealed_for, self._contents))
        return _sha256(payload.encode("utf-8"))[:8]


class TrapdoorFactory:
    """Seals and opens trapdoors under the configured backend."""

    def __init__(
        self,
        mode: str = "modeled",
        cost_model: CryptoCostModel = DEFAULT_COST_MODEL,
        rng: Optional[random.Random] = None,
        memoize: bool = True,
    ) -> None:
        if mode not in ("modeled", "real"):
            raise ValueError(f"unknown trapdoor mode {mode!r}")
        self.mode = mode
        self.cost = cost_model
        #: Crypto fast path switch.  Opening a trapdoor is a pure
        #: function of (private key, ciphertext), so memoized opens —
        #: including *negative* ones, the common case for every
        #: non-destination node in the last-hop region — are
        #: outcome-identical; the pk_decrypt delay is charged either way.
        self.memoize = memoize
        #: Only ``real`` mode draws randomness (PKCS#1 padding); the rng
        #: stays optional so modeled factories need no stream, but real
        #: sealing without one is rejected at use (see :meth:`seal`).
        self.rng = rng
        #: Per-factory seal counter feeding :meth:`Trapdoor.ref_bytes`:
        #: factories are per-originator, so ``(src_identity, seq)`` is
        #: globally unique and refs never collide — deterministically,
        #: unlike the recycled memory addresses they replace.
        self._seal_seq = 0

    # ------------------------------------------------------------------ seal
    def seal(
        self,
        dest_identity: str,
        dest_public_key: Optional[RsaPublicKey],
        contents: TrapdoorContents,
    ) -> tuple[Trapdoor, float]:
        """Create a trapdoor for ``dest_identity``.

        Returns ``(trapdoor, processing_delay_seconds)``.  ``real`` mode
        requires the destination's public key (the paper assumes the
        source holds the destination's certificate beforehand).
        """
        if self.mode == "real":
            if dest_public_key is None:
                raise ValueError("real trapdoors need the destination public key")
            if self.rng is None:
                raise ValueError(
                    "real-mode TrapdoorFactory requires an explicit rng "
                    "(e.g. node.rng('trapdoor')) for reproducible padding"
                )
            plaintext = self._pack(contents)
            ciphertext = dest_public_key.encrypt(plaintext, rng=self.rng)
            trapdoor = Trapdoor(
                size_bytes=len(ciphertext),
                ciphertext=ciphertext,
                _ref=_sha256(ciphertext)[:8],
            )
        else:
            self._seal_seq += 1
            token = (
                f"{contents.src_identity}|{dest_identity}|{self._seal_seq}".encode()
                + struct.pack(
                    "<ddd",
                    contents.src_location.x,
                    contents.src_location.y,
                    contents.timestamp,
                )
            )
            trapdoor = Trapdoor(
                size_bytes=self.cost.trapdoor_bytes,
                _sealed_for=dest_identity,
                _contents=contents,
                _ref=_sha256(token)[:8],
            )
        return trapdoor, self.cost.pk_encrypt_s

    # ------------------------------------------------------------------ open
    def try_open(
        self,
        trapdoor: Trapdoor,
        own_identity: str,
        private_key: Optional[RsaPrivateKey],
    ) -> tuple[Optional[TrapdoorContents], float]:
        """Attempt to open; returns ``(contents_or_None, delay_seconds)``.

        The delay is charged whether or not opening succeeds — a node
        cannot know it is not the destination without paying the
        private-key operation (this asymmetry is why AGFW restricts
        opening to the last-hop region).
        """
        delay = self.cost.pk_decrypt_s
        if self.mode == "real":
            if private_key is None or trapdoor.ciphertext is None:
                return None, delay
            ciphertext = trapdoor.ciphertext
            key = (private_key.public_fingerprint, _sha256(ciphertext))
            contents = memo(TRAPDOOR_OPEN).get_or_compute(
                key,
                lambda: self._open_real(ciphertext, private_key),
                self.memoize,
            )
            return contents, delay
        if trapdoor._sealed_for == own_identity:
            return trapdoor._contents, delay
        return None, delay

    @classmethod
    def _open_real(
        cls, ciphertext: bytes, private_key: RsaPrivateKey
    ) -> Optional[TrapdoorContents]:
        """The uncached open attempt: decrypt, check the tag, unpack.

        Pure in ``(private_key, ciphertext)`` — exactly what the memo key
        covers — and returns ``None`` both for "not for us" and for
        malformed plaintexts, so negative results memoize too.
        """
        try:
            plaintext = private_key.decrypt(ciphertext)
        except DecryptionError:
            return None
        return cls._unpack(plaintext)

    # ------------------------------------------------------------- packing
    @staticmethod
    def _pack(contents: TrapdoorContents) -> bytes:
        identity = contents.src_identity.encode("utf-8")
        if len(identity) > 24:
            raise ValueError("source identity too long for a 512-bit trapdoor")
        return (
            _TAG
            + struct.pack(
                "!ffdB",
                contents.src_location.x,
                contents.src_location.y,
                contents.timestamp,
                len(identity),
            )
            + identity
        )

    @staticmethod
    def _unpack(plaintext: bytes) -> Optional[TrapdoorContents]:
        if not plaintext.startswith(_TAG):
            return None
        try:
            x, y, ts, id_len = struct.unpack_from("!ffdB", plaintext, len(_TAG))
            offset = len(_TAG) + struct.calcsize("!ffdB")
            identity = plaintext[offset : offset + id_len].decode("utf-8")
        except (struct.error, UnicodeDecodeError):
            return None
        return TrapdoorContents(identity, Position(x, y), ts)
