"""Tests for AGFW extensions: perimeter recovery and piggybacked ACKs."""

from __future__ import annotations

from repro.core.config import AgfwConfig
from repro.geo.vec import Position
from tests.conftest import build_static_net, line_positions, on_air_audit

# Same void as the GPSR perimeter tests: node 1 is a true local maximum.
VOID_TOPOLOGY = [
    Position(0, 0),
    Position(250, 0),
    Position(100, 150),
    Position(200, 350),
    Position(400, 400),
    Position(560, 220),
    Position(600, 0),
]


def test_agfw_perimeter_recovers_around_void():
    """The paper's future work, implemented: face routing on the
    Gabriel-planarized ANT, next hops named by pseudonym."""
    net = build_static_net(
        VOID_TOPOLOGY, protocol="agfw",
        agfw_config=AgfwConfig(enable_perimeter=True),
    )
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-6", 64))
    net.sim.run(until=9.0)
    assert [d[0] for d in net.deliveries()] == [6]
    modes = {r.data.get("mode") for r in net.tracer.filter("route.forward")}
    assert "perimeter" in modes


def test_agfw_perimeter_disabled_drops():
    net = build_static_net(VOID_TOPOLOGY, protocol="agfw", agfw_config=AgfwConfig())
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-6", 64))
    net.sim.run(until=9.0)
    assert net.deliveries() == []


def test_agfw_perimeter_preserves_anonymity():
    """Perimeter-mode packets carry no identities on the air, in their
    wire view or in any other field."""
    with on_air_audit() as audit:
        net = build_static_net(
            VOID_TOPOLOGY, protocol="agfw",
            agfw_config=AgfwConfig(enable_perimeter=True),
        )
        net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-6", 64))
        net.sim.run(until=9.0)
    assert audit.sent["agfw.data perimeter"] > 0
    assert audit.leaks == [], f"{len(audit.leaks)} leaks, first {audit.leaks[0]}"


def test_agfw_perimeter_packets_acknowledge():
    """NL-ACK reliability covers perimeter hops like greedy hops."""
    net = build_static_net(
        VOID_TOPOLOGY, protocol="agfw",
        agfw_config=AgfwConfig(enable_perimeter=True),
    )
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-6", 64))
    net.sim.run(until=9.0)
    assert sum(n.router.acks.acks_matched for n in net.nodes) >= len(VOID_TOPOLOGY) - 2


def test_agfw_perimeter_header_overhead():
    from repro.core.agfw import AgfwData
    from repro.core.trapdoor import TrapdoorFactory, TrapdoorContents

    trapdoor, _ = TrapdoorFactory("modeled").seal(
        "x", None, TrapdoorContents("s", Position(0, 0), 0.0)
    )
    greedy = AgfwData(uid=1, dest_location=Position(0, 0), trapdoor=trapdoor)
    perimeter = greedy.clone_for_forwarding(mode="perimeter")
    assert perimeter.header_bytes() == greedy.header_bytes() + 24  # 3 locations


def test_agfw_perimeter_ttl_bounds_face_walks():
    """A disconnected void (destination unreachable) must terminate via TTL
    instead of looping forever."""
    positions = VOID_TOPOLOGY[:-1] + [Position(1500, 0)]  # dest unreachable
    net = build_static_net(
        positions, protocol="agfw",
        agfw_config=AgfwConfig(enable_perimeter=True, data_ttl=16),
    )
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-6", 64))
    net.sim.run(until=12.0)
    assert net.deliveries() == []
    forwards = net.tracer.count("route.forward")
    assert forwards <= 16 * 4  # bounded by TTL (+ NL-ACK reroutes)


# ------------------------------------------------------------- piggybacking
def test_piggybacked_acks_end_to_end():
    """With piggybacking on, forwarders attach pending ACK refs to their own
    outgoing data instead of (always) sending standalone ACK packets."""
    net = build_static_net(
        line_positions(4), protocol="agfw",
        agfw_config=AgfwConfig(piggyback_acks=True),
    )
    # Two packets close together so hop-1's ACK for packet A can ride on
    # its forward of packet B.
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-3", 64))
    net.sim.schedule(3.0005, lambda: net.nodes[0].router.send_data("node-3", 64))
    net.sim.run(until=9.0)
    assert len(net.deliveries()) == 2
    piggybacked = sum(n.router.acks.acks_piggybacked for n in net.nodes)
    matched = sum(n.router.acks.acks_matched for n in net.nodes)
    assert piggybacked > 0
    assert matched >= 6  # all hops of both packets confirmed one way or another


def test_piggyback_does_not_lose_acks_when_idle():
    """With no outgoing data to ride on, buffered refs still flush as a
    standalone ACK — reliability must not depend on traffic."""
    net = build_static_net(
        line_positions(3), protocol="agfw",
        agfw_config=AgfwConfig(piggyback_acks=True),
    )
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-2", 64))
    net.sim.run(until=9.0)
    assert len(net.deliveries()) == 1
    retransmissions = sum(n.router.acks.retransmissions for n in net.nodes)
    assert retransmissions == 0  # every hop was acknowledged in time
