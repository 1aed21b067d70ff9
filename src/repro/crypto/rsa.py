"""RSA from first principles: key generation, encryption, and signatures.

The paper evaluates with 512-bit RSA ("the size of *trapdoor* does not
exceed 64-byte since it is obtained from the RSA encryption with a 512-bit
public key").  This module implements:

* key generation (Shawe–Taylor provable primes, e = 65537),
* PKCS#1 v1.5-style block encryption (type-2 padding) — one 64-byte block
  for a 512-bit key, matching the paper's trapdoor size,
* hybrid (KEM/DEM) encryption for payloads beyond one block,
* full-domain-hash style signatures (type-1 padding over SHA-256),

No constant-time guarantees are attempted: this is a protocol
reproduction, not a hardened TLS stack; the adversary model is the
simulated network, not a co-resident timing attacker.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.hashing import sha256
from repro.crypto.primes import generate_prime
from repro.crypto.symmetric import StreamCipher

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "generate_keypair",
    "CryptoError",
    "MessageTooLong",
    "DecryptionError",
]

_MIN_PAD = 8  # PKCS#1: at least 8 bytes of random padding
_SESSION_KEY_BYTES = 16


def _require_rng(rng: Optional[random.Random], where: str) -> random.Random:
    """Reject implicit randomness: every caller must pass a seeded stream.

    Falling back to the global ``random`` stream (or an unseeded
    ``random.Random()``) made keygen and padding differ between runs with
    the same master seed — the determinism contract of
    :mod:`repro.sim.rng` forbids exactly that.
    """
    if rng is None:
        raise ValueError(
            f"{where} requires an explicit rng (derive one via RngRegistry) "
            "so results are reproducible from the master seed"
        )
    return rng


class CryptoError(Exception):
    """Base class for crypto failures."""


class MessageTooLong(CryptoError):
    """Plaintext does not fit in one RSA block (use the hybrid API)."""


class DecryptionError(CryptoError):
    """Ciphertext is malformed or was produced for a different key."""


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key (n, e)."""

    n: int
    e: int
    #: Lazily cached :meth:`fingerprint` (excluded from eq/hash/repr);
    #: fingerprints key the crypto memo caches, so recomputing the
    #: serialization + SHA-256 on every lookup would tax the fast path.
    _fp: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_size(self) -> int:
        """Size of one RSA block in bytes (e.g. 64 for a 512-bit key)."""
        return (self.bits + 7) // 8

    @property
    def max_plaintext(self) -> int:
        """Largest plaintext (bytes) a single padded block can carry."""
        return self.byte_size - _MIN_PAD - 3

    def fingerprint(self) -> bytes:
        """A stable 8-byte identifier for the key (used in certificates).

        Computed once per instance and cached: the value is a pure
        function of the frozen ``(n, e)`` fields.
        """
        if self._fp is None:
            object.__setattr__(self, "_fp", sha256(self.to_bytes())[:8])
        return self._fp  # type: ignore[return-value]

    def to_bytes(self) -> bytes:
        """Canonical serialization (length-prefixed n and e)."""
        nb = self.n.to_bytes(self.byte_size, "big")
        eb = self.e.to_bytes(4, "big")
        return len(nb).to_bytes(2, "big") + nb + eb

    # --------------------------------------------------------------- raw op
    def apply(self, value: int) -> int:
        """The raw RSA permutation value^e mod n."""
        if not 0 <= value < self.n:
            raise CryptoError("value outside RSA modulus range")
        return pow(value, self.e, self.n)

    # ----------------------------------------------------------- encryption
    def encrypt(self, plaintext: bytes, rng: Optional[random.Random] = None) -> bytes:
        """Encrypt one block with PKCS#1 v1.5 type-2 padding.

        ``rng`` is required (padding randomness must come from a seeded
        :class:`~repro.sim.rng.RngRegistry` stream for reproducible runs).
        Raises :class:`MessageTooLong` when the plaintext exceeds
        :attr:`max_plaintext`; use :meth:`encrypt_hybrid` in that case.
        """
        k = self.byte_size
        if len(plaintext) > self.max_plaintext:
            raise MessageTooLong(
                f"{len(plaintext)} bytes > {self.max_plaintext}-byte block capacity"
            )
        rng = _require_rng(rng, "RsaPublicKey.encrypt")
        pad_len = k - 3 - len(plaintext)
        padding = bytes(rng.randrange(1, 256) for _ in range(pad_len))
        block = b"\x00\x02" + padding + b"\x00" + plaintext
        cipher_int = self.apply(int.from_bytes(block, "big"))
        return cipher_int.to_bytes(k, "big")

    def encrypt_hybrid(self, plaintext: bytes, rng: Optional[random.Random] = None) -> bytes:
        """KEM/DEM encryption for arbitrary-length plaintexts.

        A fresh session key is RSA-encrypted, the payload is stream-
        encrypted under it.  Output: one RSA block followed by the
        same-length ciphertext.  ``rng`` is required, as in :meth:`encrypt`.
        """
        rng = _require_rng(rng, "RsaPublicKey.encrypt_hybrid")
        session_key = bytes(rng.randrange(256) for _ in range(_SESSION_KEY_BYTES))
        wrapped = self.encrypt(session_key, rng=rng)
        body = StreamCipher(session_key).encrypt(b"kem", plaintext)
        return wrapped + body

    # ------------------------------------------------------------ signature
    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a full-domain-hash signature produced by ``sign``."""
        if len(signature) != self.byte_size:
            return False
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.n:
            return False
        recovered = self.apply(sig_int).to_bytes(self.byte_size, "big")
        return recovered == _signature_block(message, self.byte_size)


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key; carries the factorization for completeness.

    The CRT parameters (``dp``, ``dq``, ``q_inv``) and the public-key
    fingerprint are derived once at construction: they are pure
    functions of the key material, and recomputing the modular inverse
    ``pow(q, -1, p)`` inside every :meth:`apply` call wasted a
    meaningful slice of each private-key operation (the per-op win is
    pinned by ``benchmarks/bench_crypto_costs.py``).
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    # One-time precomputation (excluded from eq/hash/repr; set in
    # __post_init__ via object.__setattr__ because the class is frozen).
    _dp: int = field(init=False, repr=False, compare=False)
    _dq: int = field(init=False, repr=False, compare=False)
    _q_inv: int = field(init=False, repr=False, compare=False)
    _pub_fp: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_dp", self.d % (self.p - 1))
        object.__setattr__(self, "_dq", self.d % (self.q - 1))
        object.__setattr__(self, "_q_inv", pow(self.q, -1, self.p))
        object.__setattr__(self, "_pub_fp", RsaPublicKey(self.n, self.e).fingerprint())

    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def public_fingerprint(self) -> bytes:
        """The matching public key's fingerprint (precomputed; used as a
        memo-cache key component for trapdoor opens)."""
        return self._pub_fp

    @property
    def byte_size(self) -> int:
        return (self.n.bit_length() + 7) // 8

    # --------------------------------------------------------------- raw op
    def apply(self, value: int) -> int:
        """The raw RSA inverse permutation value^d mod n (CRT-accelerated)."""
        if not 0 <= value < self.n:
            raise CryptoError("value outside RSA modulus range")
        # Chinese remainder theorem speedup (~4x over plain pow); the
        # CRT parameters are precomputed once in __post_init__.
        m1 = pow(value % self.p, self._dp, self.p)
        m2 = pow(value % self.q, self._dq, self.q)
        h = (self._q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q

    # ----------------------------------------------------------- decryption
    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt one PKCS#1 v1.5 type-2 block."""
        if len(ciphertext) != self.byte_size:
            raise DecryptionError("ciphertext length does not match key size")
        cipher_int = int.from_bytes(ciphertext, "big")
        if cipher_int >= self.n:
            # Produced under a different (larger) modulus: not ours.
            raise DecryptionError("ciphertext outside modulus range")
        block = self.apply(cipher_int).to_bytes(self.byte_size, "big")
        if block[:2] != b"\x00\x02":
            raise DecryptionError("bad padding header")
        try:
            separator = block.index(b"\x00", 2)
        except ValueError as exc:
            raise DecryptionError("missing padding separator") from exc
        if separator - 2 < _MIN_PAD:
            raise DecryptionError("padding too short")
        return block[separator + 1 :]

    def decrypt_hybrid(self, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`RsaPublicKey.encrypt_hybrid`."""
        k = self.byte_size
        if len(ciphertext) < k:
            raise DecryptionError("hybrid ciphertext shorter than one RSA block")
        session_key = self.decrypt(ciphertext[:k])
        if len(session_key) != _SESSION_KEY_BYTES:
            raise DecryptionError("unexpected session key length")
        return StreamCipher(session_key).decrypt(b"kem", ciphertext[k:])

    # ------------------------------------------------------------ signature
    def sign(self, message: bytes) -> bytes:
        """Full-domain-hash signature (PKCS#1 type-1 padding over SHA-256)."""
        block = _signature_block(message, self.byte_size)
        sig_int = self.apply(int.from_bytes(block, "big"))
        return sig_int.to_bytes(self.byte_size, "big")


def _signature_block(message: bytes, size: int) -> bytes:
    """The deterministic padded block that is exponentiated when signing."""
    digest = sha256(message)
    pad_len = size - 3 - len(digest)
    if pad_len < 0:
        raise CryptoError("key too small to carry a SHA-256 digest")
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + digest


def generate_keypair(bits: int = 512, rng: Optional[random.Random] = None) -> RsaPrivateKey:
    """Generate an RSA key pair with modulus of exactly ``bits`` bits.

    ``bits`` must be even and at least 384 (a SHA-256 signature block must
    fit).  ``rng`` is required: key generation must be reproducible from
    the scenario's master seed, so derive the stream via
    :class:`~repro.sim.rng.RngRegistry` (e.g. ``rngs.stream("keygen")``).
    """
    if bits % 2 != 0:
        raise ValueError("key size must be even")
    if bits < 384:
        raise ValueError("key size must be at least 384 bits")
    rng = _require_rng(rng, "generate_keypair")
    e = 65537
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(e, phi) != 1:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        d = pow(e, -1, phi)
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)
