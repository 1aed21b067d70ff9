"""Tests for sniffers, doublet tracking, and anonymity metrics.

These encode the paper's security analysis as executable assertions:
GPSR leaks (identity, location) doublets; AGFW leaks none; routes stay
traceable under AGFW (the paper's admitted non-goal); AANT observations
yield (k+1)-anonymity.
"""

from __future__ import annotations

import pytest

from repro.adversary.anonymity import (
    anonymity_entropy,
    locality_anonymity_sets,
    ring_anonymity,
)
from repro.adversary.sniffer import GlobalSniffer, Sniffer
from repro.adversary.tracker import DoubletTracker, RouteTracer
from repro.core.config import AgfwConfig
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.geo.vec import Position
from repro.net.addresses import mac_for_node
from tests.conftest import build_static_net, line_positions


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


# ------------------------------------------------------- MAC header on air
#: Small arena with data flowing from t = 0.5 s: hellos, data and (with
#: ACKs on) NL-ACKs are all on the air within 3 s, about 190 frames.
_ON_AIR = dict(
    num_nodes=15, width=800.0, height=300.0, sim_time=3.0,
    traffic_start=(0.5, 1.5), num_flows=4, num_senders=4, seed=1,
)


@pytest.mark.parametrize(
    "overrides",
    [
        {"protocol": "agfw"},
        {"protocol": "agfw-noack"},
        {"protocol": "agfw", "aant_ring_size": 3},
        {"protocol": "agfw", "real_crypto": True, "aant_ring_size": 2},
    ],
    ids=["agfw", "agfw-noack", "aant-ring", "real-crypto"],
)
def test_agfw_family_frames_name_no_node_mac_address(frames_on_air, overrides):
    """The paper's 'no MAC addresses exposed': the MAC header of every
    frame an AGFW-family node transmits names no node, as source or as
    destination.  The sniffer reads only ``packet.wire_view()``, so this
    is checked on the frames the medium carries."""
    config = ScenarioConfig(**_ON_AIR, **overrides)
    result = Scenario(config).run()
    assert result.delivered > 0
    assert len(frames_on_air) == result.frames_on_air
    addresses = {mac_for_node(node_id) for node_id in range(config.num_nodes)}
    leaks = [f for f in frames_on_air if f.src in addresses or f.dst in addresses]
    assert not leaks, f"{len(leaks)} of {len(frames_on_air)} frames name a node: {leaks[0]!r}"
