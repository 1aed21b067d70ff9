"""Integration tests for the AGFW router (Algorithm 3.2 behaviours)."""

from __future__ import annotations

from repro.core.agfw import AgfwData, AntHello
from repro.core.config import AantConfig, AgfwConfig
from repro.geo.vec import Position
from tests.conftest import build_static_net, line_positions


def _agfw_net(positions, **config_kwargs):
    return build_static_net(
        positions, protocol="agfw", agfw_config=AgfwConfig(**config_kwargs)
    )


def test_hellos_build_anonymous_tables():
    net = _agfw_net(line_positions(3))
    net.sim.run(until=3.0)
    middle = net.nodes[1].router
    assert len(middle.ant) >= 2  # at least one entry per physical neighbor


def test_hello_carries_no_identity():
    net = _agfw_net(line_positions(2))
    net.sim.run(until=2.0)
    hellos = [
        r.data["packet_obj"]
        for r in net.tracer.filter("phy.tx")
        if r.data["packet_kind"] == "agfw.hello"
    ]
    assert hellos
    for hello in hellos:
        view = hello.wire_view()
        assert "identity" not in view
        assert "node-" not in str(view.get("pseudonym"))


def test_end_to_end_delivery_on_line():
    net = _agfw_net(line_positions(5))
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-4", 64))
    net.sim.run(until=8.0)
    assert [d[0] for d in net.deliveries()] == [4]


def test_delivery_includes_crypto_delays():
    """Source seal (0.5 ms) + last-hop open (8.5 ms) must appear in latency."""
    net = _agfw_net(line_positions(2))
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-1", 64))
    net.sim.run(until=5.0)
    (_, _, recv_t), = net.deliveries()
    (_, _, send_t), = net.sends()
    assert recv_t - send_t >= 0.009  # 0.5 + 8.5 ms


def test_data_header_has_location_pseudonym_trapdoor_only():
    net = _agfw_net(line_positions(3))
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-2", 64))
    net.sim.run(until=6.0)
    data_frames = [
        r.data["packet_obj"]
        for r in net.tracer.filter("phy.tx")
        if r.data["packet_kind"] == "agfw.data"
    ]
    assert data_frames
    view = data_frames[0].wire_view()
    assert set(view) == {"dest_location", "next_pseudonym", "trapdoor"}
    assert view["trapdoor"] == {"opaque_bytes": 64}


def test_nl_acks_flow_when_enabled():
    net = _agfw_net(line_positions(4), enable_ack=True)
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-3", 64))
    net.sim.run(until=8.0)
    acks = [r for r in net.tracer.filter("phy.tx") if r.data["packet_kind"] == "agfw.ack"]
    assert acks  # every hop acknowledges
    assert sum(n.router.acks.acks_matched for n in net.nodes) >= 3


def test_no_acks_when_disabled():
    net = _agfw_net(line_positions(4), enable_ack=False)
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-3", 64))
    net.sim.run(until=8.0)
    acks = [r for r in net.tracer.filter("phy.tx") if r.data["packet_kind"] == "agfw.ack"]
    assert acks == []
    assert [d[0] for d in net.deliveries()] == [3]  # quiet channel: still arrives


def test_last_forwarding_attempt_reaches_destination():
    """Kill the destination's hellos so nobody holds its pseudonym: the
    last-hop node must broadcast n=0 and the destination must accept."""
    net = build_static_net(line_positions(3), protocol="agfw", start=False,
                           agfw_config=AgfwConfig())
    # Start routers except the destination's beaconing (it stays silent).
    for node in net.nodes[:-1]:
        node.start()
    dest = net.nodes[2]
    dest.mac.receive_callback = dest.router.on_packet  # listen without beaconing
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-2", 64))
    net.sim.run(until=8.0)
    last_attempts = list(net.tracer.filter("agfw.last_attempt"))
    assert last_attempts
    assert [d[0] for d in net.deliveries()] == [2]


def test_deadend_outside_last_hop_region_drops():
    positions = [Position(0, 0), Position(200, 0), Position(900, 0)]
    net = _agfw_net(positions)
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-2", 64))
    net.sim.run(until=8.0)
    assert net.deliveries() == []
    assert any(
        r.data.get("reason") == "deadend" for r in net.tracer.filter("route.drop")
    )


def test_non_addressed_node_discards_silently():
    """A node that owns neither the pseudonym nor sees n=0 must not forward."""
    net = _agfw_net(line_positions(3))
    net.sim.run(until=3.0)
    router = net.nodes[2].router
    from repro.core.trapdoor import TrapdoorFactory, TrapdoorContents

    trapdoor, _ = router.trapdoors.seal(
        "node-9", None, TrapdoorContents("node-0", Position(0, 0), 0.0)
    )
    packet = AgfwData(
        payload_bytes=10,
        dest_location=Position(400, 0),
        next_pseudonym=b"\xaa" * 6,
        trapdoor=trapdoor,
        ttl=10,
    )
    before = router.stats.forwarded
    router._on_data(packet)
    net.sim.run(until=4.0)
    assert router.stats.forwarded == before


def test_duplicate_data_reacks_but_does_not_reforward():
    net = _agfw_net(line_positions(3))
    net.sim.run(until=3.0)
    router = net.nodes[1].router
    pseudonym = router.pseudonyms.current
    from repro.core.trapdoor import TrapdoorContents

    trapdoor, _ = router.trapdoors.seal(
        "node-2", None, TrapdoorContents("node-0", Position(0, 0), 0.0)
    )
    packet = AgfwData(
        payload_bytes=10,
        dest_location=Position(400, 0),
        next_pseudonym=pseudonym,
        trapdoor=trapdoor,
        ttl=10,
    )
    router._on_data(packet)
    net.sim.run(until=3.5)
    forwarded_once = router.stats.forwarded
    router._on_data(packet)  # duplicate (sender missed our ACK)
    net.sim.run(until=4.0)
    assert router.stats.forwarded == forwarded_once


def test_retransmission_after_lost_ack():
    """Remove the committed forwarder mid-exchange: the sender must
    retransmit and eventually reroute or give up."""
    net = _agfw_net(line_positions(3), ack_timeout=0.02, max_retransmissions=2)
    net.sim.run(until=3.0)
    source = net.nodes[0].router
    # Point the packet at a pseudonym nobody owns.
    from repro.core.trapdoor import TrapdoorContents

    trapdoor, _ = source.trapdoors.seal(
        "node-2", None, TrapdoorContents("node-0", Position(0, 0), 0.0)
    )
    packet = AgfwData(
        payload_bytes=10,
        dest_location=Position(400, 0),
        next_pseudonym=b"\xbb" * 6,
        trapdoor=trapdoor,
        ttl=10,
    )
    source.acks.watch(packet, trapdoor.ref_bytes())
    net.sim.run(until=5.0)
    assert source.acks.retransmissions == 2
    assert source.acks.give_ups == 1


def test_ttl_expiry_drops():
    net = _agfw_net(line_positions(6), data_ttl=2)
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-5", 64))
    net.sim.run(until=8.0)
    assert net.deliveries() == []


def test_aant_enabled_tables_still_build_and_deliver():
    from repro.core.aant import AantAuthenticator

    net = build_static_net(line_positions(3), protocol="agfw", start=False,
                           attach_routers=False)
    from repro.core.agfw import AgfwRouter

    config = AgfwConfig(aant=AantConfig(ring_size=2))
    for node in net.nodes:
        auth = AantAuthenticator(config.aant, mode="modeled")
        node.attach_router(
            AgfwRouter(node, net.oracle, config, net.tracer, authenticator=auth)
        )
    for node in net.nodes:
        node.start()
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-2", 64))
    net.sim.run(until=8.0)
    assert [d[0] for d in net.deliveries()] == [2]


def test_aant_rejects_forged_hellos():
    from repro.core.aant import AantAttachment, AantAuthenticator
    from repro.core.agfw import AgfwRouter

    net = build_static_net(line_positions(2), protocol="agfw", start=False,
                           attach_routers=False)
    config = AgfwConfig(aant=AantConfig(ring_size=2))
    for node in net.nodes:
        auth = AantAuthenticator(config.aant, mode="modeled")
        node.attach_router(
            AgfwRouter(node, net.oracle, config, net.tracer, authenticator=auth)
        )
    victim = net.nodes[1].router
    forged = AntHello(
        pseudonym=b"\xee" * 6,
        position=Position(100, 0),
        timestamp=0.0,
        auth=AantAttachment(ring_size=3, extra_bytes=0, modeled_valid=False),
    )
    victim._on_hello(forged)
    net.sim.run(until=1.0)
    assert b"\xee" * 6 not in victim.ant
    assert victim.stats.drops_auth == 1
