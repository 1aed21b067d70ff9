"""Tests for sniffers, doublet tracking, and anonymity metrics.

These encode the paper's security analysis as executable assertions:
GPSR leaks (identity, location) doublets; AGFW leaks none; routes stay
traceable under AGFW (the paper's admitted non-goal); AANT observations
yield (k+1)-anonymity.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.adversary.anonymity import (
    anonymity_entropy,
    locality_anonymity_sets,
    ring_anonymity,
)
from repro.adversary.sniffer import GlobalSniffer, Sniffer
from repro.adversary.tracker import DoubletTracker, RouteTracer
from repro.core.aant import AantAttachment, CertRequest
from repro.core.agfw import AgfwData, AntHello
from repro.core.config import AgfwConfig
from repro.core.trapdoor import Trapdoor
from repro.experiments.overhead import _run_service_point
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.geo.vec import Position
from repro.net.addresses import ANONYMOUS, BROADCAST, MacAddress, mac_for_node
from repro.net.mac.frames import FrameKind, MacFrame
from repro.routing.gpsr import GpsrBeacon
from tests.conftest import build_static_net, line_positions, on_air_audit


def _run_with_sniffer(protocol, send=True):
    net = build_static_net(line_positions(4), protocol=protocol)
    sniffer = GlobalSniffer(net.tracer)
    if send:
        net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-3", 64))
    net.sim.run(until=8.0)
    return net, sniffer


# ------------------------------------------------------------------ sniffer
def test_sniffer_range_limits_observations():
    net = build_static_net(line_positions(4), protocol="gpsr")
    near = Sniffer(net.tracer, Position(0, 0), listen_range=250.0)
    everywhere = GlobalSniffer(net.tracer)
    net.sim.run(until=5.0)
    assert 0 < len(near) < len(everywhere)


def test_sniffer_reads_only_wire_view():
    _net, sniffer = _run_with_sniffer("agfw")
    for obs in sniffer.observations:
        assert "identity" not in obs.wire or obs.packet_kind == "gpsr.beacon"


def test_sniffer_localizes_transmitters():
    net, sniffer = _run_with_sniffer("gpsr")
    positions = {o.tx_position.as_tuple() for o in sniffer.observations if o.tx_position}
    assert positions <= {(x * 200.0, 0.0) for x in range(4)}


def test_sniffer_without_localization():
    net = build_static_net(line_positions(2), protocol="gpsr")
    sniffer = GlobalSniffer(net.tracer, localize=False)
    net.sim.run(until=3.0)
    assert all(o.tx_position is None for o in sniffer.observations)


# ------------------------------------------------------------------ doublets
def test_gpsr_leaks_doublets():
    _net, sniffer = _run_with_sniffer("gpsr")
    tracker = DoubletTracker()
    tracker.ingest(sniffer.observations)
    exposed = tracker.exposed_identities()
    assert len(exposed) == 4  # every beaconing node is exposed
    assert len(tracker.doublets) > 10


def test_agfw_leaks_zero_doublets():
    """The paper's core claim: no node exposes identity and location
    simultaneously."""
    _net, sniffer = _run_with_sniffer("agfw")
    tracker = DoubletTracker()
    tracker.ingest(sniffer.observations)
    assert tracker.doublets == []
    assert tracker.pseudonym_sightings > 0


def test_doublets_for_specific_victim():
    _net, sniffer = _run_with_sniffer("gpsr")
    tracker = DoubletTracker()
    tracker.ingest(sniffer.observations)
    victim = tracker.doublets_for("node-1")
    assert victim
    assert all(d.identity == "node-1" for d in victim)


def test_tracking_coverage_full_under_gpsr():
    _net, sniffer = _run_with_sniffer("gpsr")
    tracker = DoubletTracker()
    tracker.ingest(sniffer.observations)
    coverage = tracker.tracking_coverage("node-1", duration=8.0, horizon=2.0)
    assert coverage > 0.5


def test_tracking_coverage_zero_under_agfw():
    _net, sniffer = _run_with_sniffer("agfw")
    tracker = DoubletTracker()
    tracker.ingest(sniffer.observations)
    assert tracker.tracking_coverage("node-1", duration=8.0) == 0.0


def test_tracking_coverage_interval_merge():
    tracker = DoubletTracker()
    tracker._add(1.0, "x", (0, 0), "gpsr.beacon")
    tracker._add(2.0, "x", (0, 0), "gpsr.beacon")  # overlapping horizons
    coverage = tracker.tracking_coverage("x", duration=10.0, horizon=3.0)
    assert coverage == pytest.approx(4.0 / 10.0)


def test_tracking_coverage_validation():
    with pytest.raises(ValueError):
        DoubletTracker().tracking_coverage("x", duration=0.0)


# -------------------------------------------------------------------- routes
def test_agfw_routes_traceable_but_anonymous():
    """Paper Sec 4: 'the path that a packet follows could be roughly
    estimated' — but without identities."""
    _net, sniffer = _run_with_sniffer("agfw")
    tracer = RouteTracer()
    tracer.ingest(sniffer.observations)
    routes = tracer.routes()
    assert routes  # the data path was reconstructed
    assert any(len(track) >= 2 for track in routes)
    assert tracer.identities_learned() == 0


# ----------------------------------------------------------------- anonymity
def test_anonymity_entropy():
    assert anonymity_entropy(1) == 0.0
    assert anonymity_entropy(8) == 3.0
    with pytest.raises(ValueError):
        anonymity_entropy(0)


def test_ring_anonymity_from_aant_capture():
    from repro.core.aant import AantAuthenticator
    from repro.core.agfw import AgfwRouter
    from repro.core.config import AantConfig

    net = build_static_net(line_positions(3), protocol="agfw", start=False,
                           attach_routers=False)
    config = AgfwConfig(aant=AantConfig(ring_size=4))
    for node in net.nodes:
        auth = AantAuthenticator(config.aant, mode="modeled")
        node.attach_router(AgfwRouter(node, net.oracle, config, net.tracer, authenticator=auth))
    sniffer = GlobalSniffer(net.tracer)
    for node in net.nodes:
        node.start()
    net.sim.run(until=5.0)
    report = ring_anonymity(sniffer.observations)
    assert report.hellos > 0
    assert report.min_set_size == 5
    assert report.k_anonymity == 4
    assert report.mean_entropy_bits == pytest.approx(anonymity_entropy(5))


def test_ring_anonymity_empty_capture():
    report = ring_anonymity([])
    assert report.hellos == 0
    assert report.k_anonymity == -1  # no evidence, no guarantee


def test_locality_anonymity_sets():
    nodes = [Position(0, 0), Position(100, 0), Position(1000, 0)]
    sizes = locality_anonymity_sets([Position(50, 0)], nodes, radio_range=250.0)
    assert sizes == [2]
    # Even an implausible observation yields a candidate set of >= 1.
    assert locality_anonymity_sets([Position(5000, 0)], nodes) == [1]


# ------------------------------------------------------------ on the air
#: Small arena with data flowing from t = 0.5 s: hellos, data and (with
#: ACKs on) NL-ACKs are all on the air within 3 s, about 190 frames.
_ON_AIR = dict(
    num_nodes=15, width=800.0, height=300.0, sim_time=3.0,
    traffic_start=(0.5, 1.5), num_flows=4, num_senders=4, seed=1,
)


@pytest.mark.parametrize(
    "overrides, forms",
    [
        ({"protocol": "agfw"}, {"agfw.hello unsigned", "agfw.data greedy", "agfw.ack"}),
        ({"protocol": "agfw-noack"}, {"agfw.hello unsigned", "agfw.data greedy"}),
        ({"protocol": "agfw", "aant_ring_size": 3},
         {"agfw.hello signed", "agfw.data greedy", "agfw.ack"}),
        ({"protocol": "agfw", "real_crypto": True, "aant_ring_size": 2},
         {"agfw.hello signed", "agfw.data greedy", "agfw.ack"}),
    ],
    ids=["agfw", "agfw-noack", "aant-ring", "real-crypto"],
)
def test_agfw_family_frames_name_no_node_mac_address(overrides, forms):
    """The paper's 'no identities or MAC addresses exposed', checked on
    the air: no frame an AGFW-family node transmits names a node, in its
    MAC header or anywhere in its packet.  Real crypto puts the ring's
    member names on the air, in the one form that may carry them."""
    config = ScenarioConfig(**_ON_AIR, **overrides)
    with on_air_audit() as audit:
        result = Scenario(config).run()
    assert result.delivered > 0
    assert audit.frames == result.frames_on_air
    assert audit.leaks == [], f"{len(audit.leaks)} leaks, first {audit.leaks[0]}"
    assert set(audit.sent) == forms
    assert bool(audit.allowed) == ("real_crypto" in overrides)


@pytest.mark.parametrize("include_index", [True, False], ids=["index", "no-index"])
def test_als_service_point_sends_no_identity(include_index):
    """ALS updates, requests and replies name no node on the air.  The
    no-index variant answers fewer lookups, and the plain DLM fallback
    it then sends is the sanctioned cleartext baseline."""
    with on_air_audit() as audit:
        report = _run_service_point(("als", 25, 19, 4, 10.0, include_index, 3))
    assert report.lookups_answered > 0
    assert audit.leaks == [], f"{len(audit.leaks)} leaks, first {audit.leaks[0]}"
    assert {"als.update", "als.request", "als.reply"} <= set(audit.sent)
    assert set(audit.sent) <= {
        "agfw.hello unsigned", "als.update", "als.request", "als.reply", "dlm.request",
    }


def test_gpsr_baseline_leaks_are_allowed_not_silent():
    """The audit is not vacuously green: on GPSR, the cleartext baseline,
    every node's identity and MAC address is seen on the air, and only
    the baseline allowance keeps them out of the leaks."""
    with on_air_audit() as audit:
        Scenario(ScenarioConfig(**_ON_AIR, protocol="gpsr")).run()
    assert audit.leaks == []
    named = " ".join(audit.allowed)
    for node_id in range(_ON_AIR["num_nodes"]):
        assert f"identity 'node-{node_id}'" in named
        assert f"frame.src: MAC address of node {node_id}" in audit.allowed


# ---------------------------------------------------- the audit, planted
@dataclass
class _TaggedData(AgfwData):
    """An AGFW data header with one extra public field."""

    origin: object = None


class _ChattyTrapdoor(Trapdoor):
    """A trapdoor whose wire view serializes its sealed recipient."""

    def wire_view(self) -> dict:
        return {"opaque_bytes": self.size_bytes, "for": self._sealed_for}


def _audit(packet, src=ANONYMOUS, dst=BROADCAST):
    """Leaks and allowances of one planted frame among 13 nodes."""
    with on_air_audit() as audit:
        net = build_static_net(line_positions(13), protocol="agfw", start=False)
        origin = packet(net.nodes) if callable(packet) else packet
        audit.inspect(MacFrame(FrameKind.DATA, src, dst, origin))
    return audit.leaks, audit.allowed


def test_audit_flags_identity_on_word_boundaries():
    leaks, _ = _audit(_TaggedData(uid=1, origin="from node-12, via node-1x"))
    assert leaks == ["agfw.data.origin: identity 'node-12'"]
    assert _audit(AntHello(uid=1, pseudonym=b"node-3"))[0] == [
        "agfw.hello.pseudonym: identity b'node-3'",
    ]
    assert _audit(_TaggedData(uid=1, origin=("node-123", "xnode-1", "node_1")))[0] == []


def test_audit_flags_mac_addresses_and_node_ids():
    assert _audit(AgfwData(uid=1), src=mac_for_node(2))[0] == [
        "frame.src: MAC address of node 2",
    ]
    assert _audit(_TaggedData(uid=1, origin=mac_for_node(12)))[0] == [
        "agfw.data.origin: MAC address of node 12",
    ]
    assert _audit(lambda nodes: _TaggedData(uid=1, origin=nodes[4].node_id))[0] == [
        "agfw.data.origin: node id 4",
    ]
    # Addresses and ints that name no node pass.
    assert _audit(_TaggedData(uid=1, origin=(BROADCAST, ANONYMOUS, MacAddress(99), 4)))[0] == []


def test_audit_reads_wire_views_not_only_fields():
    """A private field stays off the air until a wire view serializes it."""
    sealed = dict(size_bytes=64, _sealed_for="node-5")
    assert _audit(AgfwData(uid=1, trapdoor=Trapdoor(**sealed)))[0] == []
    assert _audit(AgfwData(uid=1, trapdoor=_ChattyTrapdoor(**sealed)))[0] == [
        "agfw.data.trapdoor.wire_view()['for']: identity 'node-5'",
    ]


def test_audit_allows_ring_forms_and_baselines_only():
    ring = AantAttachment(ring_size=2, extra_bytes=0, ring_subjects=("node-1", "node-2"))
    leaks, allowed = _audit(AntHello(uid=1, auth=ring))
    assert leaks == []
    assert "agfw.hello.auth.ring_subjects[0]: identity 'node-1'" in allowed
    assert _audit(CertRequest(uid=1, subjects=("node-7",)))[0] == []
    assert _audit(GpsrBeacon(uid=1, sender_identity="node-7"), src=mac_for_node(7))[0] == []
    # The same names outside those forms are leaks.
    assert _audit(_TaggedData(uid=1, origin=ring.ring_subjects))[0] == [
        "agfw.data.origin[0]: identity 'node-1'",
        "agfw.data.origin[1]: identity 'node-2'",
    ]
