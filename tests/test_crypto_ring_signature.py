"""Tests for RST ring signatures — the AANT's anonymity mechanism."""

from __future__ import annotations

import pytest

from repro.crypto.ring_signature import (
    RingSignature,
    ring_domain_width,
    ring_sign,
    ring_verify,
)


@pytest.fixture(scope="module")
def ring(rsa_keys):
    return [key.public() for key in rsa_keys[:5]]


def test_sign_verify_every_position(rsa_keys, ring, rng):
    """Any ring member can produce a signature that verifies identically —
    the signer-ambiguity the (k+1)-anonymity claim rests on."""
    for index in range(len(ring)):
        signature = ring_sign(b"hello", ring, index, rsa_keys[index], rng)
        assert ring_verify(b"hello", ring, signature)


def test_ring_of_one_degenerates_to_plain_signature(rsa_keys, rng):
    ring = [rsa_keys[0].public()]
    signature = ring_sign(b"solo", ring, 0, rsa_keys[0], rng)
    assert ring_verify(b"solo", ring, signature)


def test_tampered_message_rejected(rsa_keys, ring, rng):
    signature = ring_sign(b"hello", ring, 2, rsa_keys[2], rng)
    assert not ring_verify(b"hellO", ring, signature)


def test_tampered_x_rejected(rsa_keys, ring, rng):
    signature = ring_sign(b"hello", ring, 1, rsa_keys[1], rng)
    xs = list(signature.xs)
    xs[3] ^= 1
    forged = RingSignature(glue=signature.glue, xs=tuple(xs), width=signature.width)
    assert not ring_verify(b"hello", ring, forged)


def test_tampered_glue_rejected(rsa_keys, ring, rng):
    signature = ring_sign(b"hello", ring, 1, rsa_keys[1], rng)
    forged = RingSignature(glue=signature.glue ^ 1, xs=signature.xs, width=signature.width)
    assert not ring_verify(b"hello", ring, forged)


def test_reordered_ring_rejected(rsa_keys, ring, rng):
    signature = ring_sign(b"hello", ring, 0, rsa_keys[0], rng)
    shuffled = list(ring)
    shuffled.reverse()
    assert not ring_verify(b"hello", shuffled, signature)


def test_wrong_ring_size_rejected(rsa_keys, ring, rng):
    signature = ring_sign(b"hello", ring, 0, rsa_keys[0], rng)
    assert not ring_verify(b"hello", ring[:-1], signature)


def test_outsider_cannot_sign_without_private_key(rsa_keys, ring, rng):
    """A forger (the paper's spoofing attacker) holding only public keys
    must place its own key in the ring for signing to work."""
    outsider = rsa_keys[6]  # not in `ring`
    with pytest.raises(ValueError):
        ring_sign(b"forged", ring, 0, outsider, rng)


def test_signer_index_bounds(rsa_keys, ring, rng):
    with pytest.raises(ValueError):
        ring_sign(b"m", ring, 5, rsa_keys[0], rng)
    with pytest.raises(ValueError):
        ring_sign(b"m", [], 0, rsa_keys[0], rng)


def test_serialization_roundtrip(rsa_keys, ring, rng):
    signature = ring_sign(b"hello", ring, 3, rsa_keys[3], rng)
    restored = RingSignature.from_bytes(signature.to_bytes())
    assert restored == signature
    assert ring_verify(b"hello", ring, restored)


def test_byte_size_formula(rsa_keys, ring, rng):
    signature = ring_sign(b"hello", ring, 0, rsa_keys[0], rng)
    assert signature.byte_size() == signature.width * (len(ring) + 1)


def test_domain_width_covers_largest_key(ring):
    width = ring_domain_width(ring)
    assert width % 2 == 0
    assert width * 8 >= max(k.bits for k in ring) + 160


def test_signatures_are_randomized(rsa_keys, ring, rng):
    a = ring_sign(b"hello", ring, 0, rsa_keys[0], rng)
    b = ring_sign(b"hello", ring, 0, rsa_keys[0], rng)
    assert a.glue != b.glue


def test_signature_structure_hides_signer_position(rsa_keys, ring, rng):
    """No per-slot structural difference betrays the signer: every x_i is a
    full-width domain element regardless of who signed."""
    for signer in (0, 4):
        signature = ring_sign(b"hello", ring, signer, rsa_keys[signer], rng)
        assert len(signature.xs) == len(ring)
        assert all(0 <= x < 2 ** (8 * signature.width) for x in signature.xs)


def test_verify_never_raises_on_garbage(ring):
    garbage = RingSignature(glue=1, xs=(1, 2, 3), width=4)
    assert not ring_verify(b"m", ring, garbage)
    huge = RingSignature(glue=2**800, xs=tuple([2**800] * 5), width=ring_domain_width(ring))
    assert not ring_verify(b"m", ring, huge)
