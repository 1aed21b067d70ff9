"""Tests for the AANT certificate-fetch sub-protocol (paper Section 4).

A cold-cache verifier must not silently reject honest ring-signed hellos:
it requests the missing decoy certificates from its neighbors, caches the
replies, and retries verification.  "The number of explicit requests are
expected to decline significantly after the network boots up."
"""

from __future__ import annotations

import random

from repro.core.aant import AantAuthenticator, CertReply, CertRequest
from repro.core.agfw import AgfwRouter
from repro.core.config import AantConfig, AgfwConfig
from repro.crypto.certificates import CertificateAuthority, KeyStore
from tests.conftest import build_static_net, line_positions, on_air_audit


def _real_aant_net(num_nodes=3, ring_size=2, cold_indexes=()):
    """Real-crypto AANT network; nodes in ``cold_indexes`` start with only
    their own certificate cached."""
    net = build_static_net(
        line_positions(num_nodes), protocol="agfw", start=False, attach_routers=False
    )
    ca = CertificateAuthority(rng=random.Random(13))
    stores = []
    for node in net.nodes:
        key, cert = ca.enroll(node.identity)
        stores.append(KeyStore(node.identity, key, cert))
    all_certs = [s.certificate for s in stores]
    for index, (node, store) in enumerate(zip(net.nodes, stores)):
        if index not in cold_indexes:
            store.add_all(all_certs)
        node.keystore = store
    config = AgfwConfig(aant=AantConfig(ring_size=ring_size), crypto_mode="real")
    for node in net.nodes:
        auth = AantAuthenticator(
            config.aant, mode="real", keystore=node.keystore, ca=ca,
            rng=node.rng("aant"),
        )
        node.attach_router(
            AgfwRouter(node, net.oracle, config, net.tracer, authenticator=auth)
        )
    for node in net.nodes:
        node.start()
    return net, ca, stores


def test_cold_verifier_fetches_and_accepts():
    with on_air_audit() as audit:
        net, _ca, stores = _real_aant_net(num_nodes=3, cold_indexes=(1,))
        cold = net.nodes[1].router
        assert len(stores[1]) == 1  # only its own certificate
        net.sim.run(until=6.0)
    # It asked, neighbors answered, and its ANT filled up anyway.
    assert cold.cert_requests_sent > 0
    assert len(stores[1]) > 1
    assert len(cold.ant) >= 1
    assert sum(n.router.cert_replies_sent for n in net.nodes) > 0
    # The fetch names ring members only in the forms that may carry them.
    assert audit.sent["aant.cert_request"] > 0
    assert audit.sent["aant.cert_reply"] > 0
    assert audit.leaks == [], f"{len(audit.leaks)} leaks, first {audit.leaks[0]}"


def test_requests_decline_after_bootstrap():
    """The paper's expectation: explicit requests dry up once caches warm."""
    with on_air_audit() as audit:
        net, _ca, _stores = _real_aant_net(num_nodes=3, cold_indexes=(1,))
        cold = net.nodes[1].router
        net.sim.run(until=8.0)
        early_requests = cold.cert_requests_sent
        assert early_requests > 0
        net.sim.run(until=20.0)
    late_requests = cold.cert_requests_sent - early_requests
    # 12 more seconds of beaconing produce (almost) no new requests.
    assert late_requests <= early_requests
    assert audit.leaks == [], f"{len(audit.leaks)} leaks, first {audit.leaks[0]}"


def test_warm_network_sends_no_requests():
    net, _ca, _stores = _real_aant_net(num_nodes=3, cold_indexes=())
    net.sim.run(until=6.0)
    assert sum(n.router.cert_requests_sent for n in net.nodes) == 0


def test_forged_certificates_in_reply_rejected():
    net, ca, stores = _real_aant_net(num_nodes=2, cold_indexes=(1,))
    evil_ca = CertificateAuthority(name="evil", rng=random.Random(66), key_bits=512)
    _evil_key, evil_cert = evil_ca.enroll("node-0")  # impersonation attempt
    cold = net.nodes[1].router
    before = len(stores[1])
    cold._on_cert_reply(CertReply(certificates=(evil_cert,)))
    assert len(stores[1]) == before  # not cached


def test_cert_request_wire_size():
    request = CertRequest(subjects=("node-1", "node-2"))
    assert request.header_bytes() > 20
    assert request.wire_view() == {"subjects": ["node-1", "node-2"]}


def test_cert_reply_size_scales_with_certificates(ca_with_nodes):
    _ca, stores = ca_with_nodes
    one = CertReply(certificates=(stores[0].certificate,))
    two = CertReply(certificates=(stores[0].certificate, stores[1].certificate))
    assert two.header_bytes() > one.header_bytes()
