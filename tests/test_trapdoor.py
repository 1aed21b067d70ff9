"""Tests for trapdoor sealing/opening in both crypto modes."""

from __future__ import annotations

import pytest

from repro.core.trapdoor import Trapdoor, TrapdoorContents, TrapdoorFactory
from repro.crypto.timing import DEFAULT_COST_MODEL
from repro.geo.vec import Position


@pytest.fixture
def contents():
    return TrapdoorContents("node-0", Position(12.5, 34.0), 5.0)


# ------------------------------------------------------------- modeled mode
def test_modeled_seal_open_roundtrip(contents):
    factory = TrapdoorFactory("modeled")
    trapdoor, seal_delay = factory.seal("node-9", None, contents)
    assert seal_delay == pytest.approx(DEFAULT_COST_MODEL.pk_encrypt_s)
    opened, open_delay = factory.try_open(trapdoor, "node-9", None)
    assert opened == contents
    assert open_delay == pytest.approx(DEFAULT_COST_MODEL.pk_decrypt_s)


def test_modeled_wrong_identity_fails_but_charges(contents):
    factory = TrapdoorFactory("modeled")
    trapdoor, _ = factory.seal("node-9", None, contents)
    opened, delay = factory.try_open(trapdoor, "node-3", None)
    assert opened is None
    assert delay == pytest.approx(DEFAULT_COST_MODEL.pk_decrypt_s)


def test_modeled_size_is_paper_bound(contents):
    factory = TrapdoorFactory("modeled")
    trapdoor, _ = factory.seal("node-9", None, contents)
    assert trapdoor.size_bytes == 64


def test_wire_view_is_opaque(contents):
    """The sniffer must not see anything but a size."""
    factory = TrapdoorFactory("modeled")
    trapdoor, _ = factory.seal("node-9", None, contents)
    assert trapdoor.wire_view() == {"opaque_bytes": 64}


def test_ref_bytes_unique_per_trapdoor(contents):
    factory = TrapdoorFactory("modeled")
    a, _ = factory.seal("node-9", None, contents)
    b, _ = factory.seal("node-9", None, contents)
    assert a.ref_bytes() != b.ref_bytes()
    assert len(a.ref_bytes()) == 8


def test_ref_bytes_deterministic_across_factories(contents):
    """Regression: refs used to be ``id(self)`` — memory addresses, which
    the allocator recycles and which vary with process history.  A ref
    must be a pure function of the seal sequence and contents, so two
    factories replaying the same seals mint identical refs."""
    first = TrapdoorFactory("modeled")
    second = TrapdoorFactory("modeled")
    refs_first = [first.seal("node-9", None, contents)[0].ref_bytes() for _ in range(5)]
    refs_second = [second.seal("node-9", None, contents)[0].ref_bytes() for _ in range(5)]
    assert refs_first == refs_second  # replayable, not address-dependent
    assert len(set(refs_first)) == 5  # and still unique per sealed packet


def test_handbuilt_fallback_ref_is_content_derived(contents):
    """Regression (DET-010): the hand-built fallback used to hash
    ``id(self)`` — an interpreter heap address that differs between runs
    and processes.  Two hand-built trapdoors with identical fields must
    mint identical refs (the fallback is a pure function of the sealed
    fields), and different fields must mint different refs."""
    a = Trapdoor(size_bytes=64, _sealed_for="node-9", _contents=contents)
    b = Trapdoor(size_bytes=64, _sealed_for="node-9", _contents=contents)
    assert a.ref_bytes() == b.ref_bytes()
    assert len(a.ref_bytes()) == 8
    other = Trapdoor(size_bytes=64, _sealed_for="node-3", _contents=contents)
    assert other.ref_bytes() != a.ref_bytes()


def test_ref_bytes_survive_garbage_collection(contents):
    """Regression: an ``id``-based ref could collide with a *live* pending
    ref once the original trapdoor was freed and its address reused.
    Sealed refs must stay unique across any interleaving of seals and
    drops."""
    factory = TrapdoorFactory("modeled")
    seen = set()
    addresses = set()
    for _ in range(200):
        trapdoor, _ = factory.seal("node-9", None, contents)
        ref = trapdoor.ref_bytes()
        assert ref not in seen
        seen.add(ref)
        addresses.add(id(trapdoor))
        # Trapdoors hold no reference cycles, so ``del`` frees the
        # object at once and the next seal may reuse its address.
        del trapdoor
    # The premise: addresses really were reused, so an address-derived
    # ref would have collided above.
    assert len(addresses) < 200


# ---------------------------------------------------------------- real mode
def test_real_seal_open_roundtrip(rsa_keys, contents, rng):
    factory = TrapdoorFactory("real", rng=rng)
    dest = rsa_keys[0]
    trapdoor, _ = factory.seal("node-9", dest.public(), contents)
    assert trapdoor.ciphertext is not None
    assert trapdoor.size_bytes == 64  # one RSA-512 block
    opened, _ = factory.try_open(trapdoor, "node-9", dest)
    assert opened is not None
    assert opened.src_identity == contents.src_identity
    assert opened.src_location.x == pytest.approx(contents.src_location.x, abs=1e-3)
    assert opened.timestamp == pytest.approx(contents.timestamp)


def test_real_wrong_key_fails(rsa_keys, contents, rng):
    factory = TrapdoorFactory("real", rng=rng)
    trapdoor, _ = factory.seal("node-9", rsa_keys[0].public(), contents)
    opened, _ = factory.try_open(trapdoor, "node-9", rsa_keys[1])
    assert opened is None


def test_real_no_private_key_fails(rsa_keys, contents, rng):
    factory = TrapdoorFactory("real", rng=rng)
    trapdoor, _ = factory.seal("node-9", rsa_keys[0].public(), contents)
    opened, delay = factory.try_open(trapdoor, "node-9", None)
    assert opened is None
    assert delay > 0


def test_real_requires_public_key(contents):
    factory = TrapdoorFactory("real")
    with pytest.raises(ValueError):
        factory.seal("node-9", None, contents)


def test_real_identity_too_long_rejected(rsa_keys, rng):
    factory = TrapdoorFactory("real", rng=rng)
    long_contents = TrapdoorContents("x" * 30, Position(0, 0), 0.0)
    with pytest.raises(ValueError):
        factory.seal("node-9", rsa_keys[0].public(), long_contents)


def test_real_ref_is_ciphertext_hash(rsa_keys, contents, rng):
    factory = TrapdoorFactory("real", rng=rng)
    trapdoor, _ = factory.seal("node-9", rsa_keys[0].public(), contents)
    from repro.crypto.hashing import sha256

    assert trapdoor.ref_bytes() == sha256(trapdoor.ciphertext)[:8]


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        TrapdoorFactory("quantum")


def test_unpack_rejects_garbage():
    assert TrapdoorFactory._unpack(b"not-a-trapdoor") is None
    assert TrapdoorFactory._unpack(b"DST!") is None  # truncated
