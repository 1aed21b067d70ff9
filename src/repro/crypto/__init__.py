"""Cryptographic substrate: RSA, ring signatures, certificates, cost model.

Everything is implemented from first principles (provable primes, raw
modular exponentiation, SHA-256-based symmetric constructions) so the
protocol's cryptographic code paths are genuinely exercised, while the
simulator may substitute a calibrated cost model per the paper.
"""

from repro.crypto.cache import LruMemo, cache_counters, memo, reset_caches
from repro.crypto.certificates import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    KeyStore,
)
from repro.crypto.hashing import hash_to_int, hmac_sha256, mgf1, sha256, truncated_digest
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.ring_signature import (
    RingSignature,
    ring_domain_width,
    ring_sign,
    ring_verify,
)
from repro.crypto.rsa import (
    CryptoError,
    DecryptionError,
    MessageTooLong,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
)
from repro.crypto.symmetric import FeistelPermutation, StreamCipher
from repro.crypto.timing import DEFAULT_COST_MODEL, CryptoCostModel

__all__ = [
    "LruMemo",
    "cache_counters",
    "memo",
    "reset_caches",
    "Certificate",
    "CertificateAuthority",
    "CertificateError",
    "KeyStore",
    "hash_to_int",
    "hmac_sha256",
    "mgf1",
    "sha256",
    "truncated_digest",
    "generate_prime",
    "is_probable_prime",
    "RingSignature",
    "ring_domain_width",
    "ring_sign",
    "ring_verify",
    "CryptoError",
    "DecryptionError",
    "MessageTooLong",
    "RsaPrivateKey",
    "RsaPublicKey",
    "generate_keypair",
    "FeistelPermutation",
    "StreamCipher",
    "DEFAULT_COST_MODEL",
    "CryptoCostModel",
]
