"""Tests for the authenticated ANT (ring-signed hellos)."""

from __future__ import annotations

import random

import pytest

from repro.core.aant import AantAttachment, AantAuthenticator, hello_signing_bytes
from repro.core.agfw import AntHello
from repro.core.config import AantConfig
from repro.crypto.timing import DEFAULT_COST_MODEL
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.geo.vec import Position
from repro.net.addresses import BROADCAST


def _modeled(k=3):
    return AantAuthenticator(AantConfig(ring_size=k), mode="modeled")


def _real(stores, ca, index=0, k=3):
    return AantAuthenticator(
        AantConfig(ring_size=k),
        mode="real",
        keystore=stores[index],
        ca=ca,
        rng=random.Random(index),
    )


# ------------------------------------------------------------- modeled mode
def test_modeled_sign_and_verify():
    auth = _modeled(k=4)
    attachment, sign_delay = auth.sign_hello(b"\x01" * 6, Position(0, 0), 1.0)
    assert attachment.ring_size == 5
    assert sign_delay == pytest.approx(DEFAULT_COST_MODEL.ring_sign_cost(5))
    valid, verify_delay = auth.verify_hello(attachment, b"\x01" * 6, Position(0, 0), 1.0)
    assert valid
    assert verify_delay == pytest.approx(DEFAULT_COST_MODEL.ring_verify_cost(5))


def test_modeled_forgery_flag_rejected():
    auth = _modeled()
    forged = AantAttachment(ring_size=4, extra_bytes=0, modeled_valid=False)
    valid, _ = auth.verify_hello(forged, b"\x01" * 6, Position(0, 0), 1.0)
    assert not valid


def test_missing_attachment_rejected_free():
    auth = _modeled()
    valid, delay = auth.verify_hello(None, b"\x01" * 6, Position(0, 0), 1.0)
    assert not valid
    assert delay == 0.0


def test_overhead_grows_with_ring():
    small, _ = _modeled(k=1).sign_hello(b"\x01" * 6, Position(0, 0), 0.0)
    large, _ = _modeled(k=8).sign_hello(b"\x01" * 6, Position(0, 0), 0.0)
    assert large.extra_bytes > small.extra_bytes


def test_anonymity_set_size():
    assert _modeled(k=7).anonymity_set_size() == 8


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        AantAuthenticator(AantConfig(), mode="magic")


def test_real_mode_requires_keystore():
    with pytest.raises(ValueError):
        AantAuthenticator(AantConfig(), mode="real")


# ----------------------------------------------------------------- real mode
def test_real_sign_verify_roundtrip(ca_with_nodes):
    ca, stores = ca_with_nodes
    signer = _real(stores, ca, index=0)
    verifier = _real(stores, ca, index=1)
    attachment, _ = signer.sign_hello(b"\x07" * 6, Position(10, 20), 3.0)
    assert attachment.signature is not None
    assert len(attachment.ring_subjects) == 4
    valid, _ = verifier.verify_hello(attachment, b"\x07" * 6, Position(10, 20), 3.0)
    assert valid


def test_real_signer_among_subjects_but_ambiguous(ca_with_nodes):
    """The signer's identity appears in the ring (it must), but its slot
    varies — the verifier cannot pin it down."""
    ca, stores = ca_with_nodes
    signer = _real(stores, ca, index=0)
    positions = set()
    for _ in range(12):
        attachment, _ = signer.sign_hello(b"\x01" * 6, Position(0, 0), 0.0)
        assert "node-0" in attachment.ring_subjects
        positions.add(attachment.ring_subjects.index("node-0"))
    assert len(positions) > 1


def test_real_tampered_position_rejected(ca_with_nodes):
    ca, stores = ca_with_nodes
    signer = _real(stores, ca, index=0)
    verifier = _real(stores, ca, index=1)
    attachment, _ = signer.sign_hello(b"\x07" * 6, Position(10, 20), 3.0)
    valid, _ = verifier.verify_hello(attachment, b"\x07" * 6, Position(99, 20), 3.0)
    assert not valid


def test_real_spoofed_pseudonym_rejected(ca_with_nodes):
    """The spoofing attack of Sec 3.1.1: re-announcing someone's signed
    hello under a different pseudonym must fail verification."""
    ca, stores = ca_with_nodes
    signer = _real(stores, ca, index=0)
    verifier = _real(stores, ca, index=1)
    attachment, _ = signer.sign_hello(b"\x07" * 6, Position(10, 20), 3.0)
    valid, _ = verifier.verify_hello(attachment, b"\x08" * 6, Position(10, 20), 3.0)
    assert not valid


def test_real_unknown_decoy_rejected(ca_with_nodes):
    """A verifier with a cold certificate cache cannot validate the ring
    (the explicit-request optimization is out of scope) — it must reject."""
    ca, stores = ca_with_nodes
    signer = _real(stores, ca, index=0)
    from repro.crypto.certificates import KeyStore

    cold_key, cold_cert = ca.enroll("stranger")
    cold_store = KeyStore("stranger", cold_key, cold_cert)
    verifier = AantAuthenticator(
        AantConfig(ring_size=3), mode="real", keystore=cold_store, ca=ca
    )
    attachment, _ = signer.sign_hello(b"\x07" * 6, Position(0, 0), 0.0)
    valid, _ = verifier.verify_hello(attachment, b"\x07" * 6, Position(0, 0), 0.0)
    assert not valid


def test_real_revoked_decoy_rejected(ca_with_nodes):
    ca, stores = ca_with_nodes
    signer = _real(stores, ca, index=2)
    verifier = _real(stores, ca, index=3)
    attachment, _ = signer.sign_hello(b"\x01" * 6, Position(0, 0), 0.0)
    victim = attachment.ring_subjects[0]
    serial = stores[0].get(victim).serial
    ca.revoke(serial)
    try:
        valid, _ = verifier.verify_hello(attachment, b"\x01" * 6, Position(0, 0), 0.0)
        assert not valid
    finally:
        ca._revoked.discard(serial)  # leave shared fixture clean


def test_signing_bytes_quantization_stable():
    a = hello_signing_bytes(b"\x01" * 6, Position(10.001, 20.002), 1.0)
    b = hello_signing_bytes(b"\x01" * 6, Position(10.001, 20.002), 1.0)
    assert a == b
    c = hello_signing_bytes(b"\x01" * 6, Position(10.5, 20.002), 1.0)
    assert a != c


# ----------------------------------------- delay accounting (PR 3 bugfix)
def test_real_unknown_decoy_charges_no_delay(ca_with_nodes):
    """Regression: the verifier used to charge the full ring_verify_cost
    *before* discovering it could not resolve a decoy certificate — paying
    8+ modular exponentiations' worth of virtual time for a lookup miss.
    A bail-out before any cryptographic work must be free."""
    ca, stores = ca_with_nodes
    signer = _real(stores, ca, index=0)
    from repro.crypto.certificates import KeyStore

    cold_key, cold_cert = ca.enroll("stranger-2")
    cold_store = KeyStore("stranger-2", cold_key, cold_cert)
    verifier = AantAuthenticator(
        AantConfig(ring_size=3), mode="real", keystore=cold_store, ca=ca
    )
    attachment, _ = signer.sign_hello(b"\x07" * 6, Position(0, 0), 0.0)
    valid, delay = verifier.verify_hello(attachment, b"\x07" * 6, Position(0, 0), 0.0)
    assert not valid
    assert delay == 0.0


def test_real_missing_signature_charges_no_delay(ca_with_nodes):
    ca, stores = ca_with_nodes
    verifier = _real(stores, ca, index=1)
    stripped = AantAttachment(ring_size=4, extra_bytes=0, signature=None)
    valid, delay = verifier.verify_hello(stripped, b"\x07" * 6, Position(0, 0), 0.0)
    assert not valid
    assert delay == 0.0


def test_real_resolvable_ring_charges_full_cost(ca_with_nodes):
    """Once every ring member is resolvable the cryptographic work happens
    (or is memoized) and the full cost is charged — valid or not."""
    ca, stores = ca_with_nodes
    signer = _real(stores, ca, index=0)
    verifier = _real(stores, ca, index=1)
    args = (b"\x09" * 6, Position(5, 5), 1.0)
    attachment, _ = signer.sign_hello(*args)
    expected = DEFAULT_COST_MODEL.ring_verify_cost(attachment.ring_size)

    valid, delay = verifier.verify_hello(attachment, *args)
    assert valid and delay == pytest.approx(expected)

    # A tampered message fails *inside* ring verification: cost still paid.
    valid, delay = verifier.verify_hello(attachment, b"\x0a" * 6, Position(5, 5), 1.0)
    assert not valid and delay == pytest.approx(expected)


def test_hello_stamped_in_the_future_never_enters_the_ant():
    # A ring member signs a valid hello stamped far ahead of every clock.
    # Ageing such a row overflows the freshness score, so the receiver
    # must reject it and the run must reach its horizon.
    config = ScenarioConfig(
        protocol="agfw", num_nodes=15, width=800.0, height=300.0, sim_time=4.0,
        traffic_start=(0.5, 1.5), num_flows=4, num_senders=4, aant_ring_size=2,
        seed=1,
    )
    scenario = Scenario(config)
    liar = scenario.nodes[0].router
    stamped = []

    def send_future_beacon() -> None:
        pseudonym = liar.pseudonyms.new_pseudonym()
        position = liar.position
        stamp = scenario.sim.now + 1e6
        attachment, _delay = liar.authenticator.sign_hello(pseudonym, position, stamp)
        stamped.append(pseudonym)
        hello = AntHello(
            pseudonym=pseudonym, position=position, timestamp=stamp,
            auth=attachment, uid=liar.node.next_packet_uid(),
        )
        liar.node.mac.send(hello, BROADCAST)

    liar.send_beacon = send_future_beacon
    scenario.run()
    assert scenario.sim.now == config.sim_time
    assert stamped
    assert sum(node.router.stats.drops_auth for node in scenario.nodes[1:]) > 0
    for node in scenario.nodes[1:]:
        assert not any(pseudonym in node.router.ant for pseudonym in stamped)
