"""Tests for the GPSR baseline router (greedy + perimeter recovery)."""

from __future__ import annotations

from repro.geo.vec import Position
from repro.routing.gpsr import GpsrBeacon, GpsrConfig, GpsrData
from tests.conftest import build_static_net, line_positions


def test_beacons_populate_neighbor_tables():
    net = build_static_net(line_positions(3), protocol="gpsr")
    net.sim.run(until=3.0)
    middle = net.nodes[1].router
    assert "node-0" in middle.table
    assert "node-2" in middle.table
    assert "node-0" not in net.nodes[2].router.table  # 400 m apart


def test_beacon_carries_identity_and_location():
    """The privacy leak the paper attacks, asserted explicitly."""
    beacon = GpsrBeacon(sender_identity="node-1", position=Position(3, 4), timestamp=1.0)
    view = beacon.wire_view()
    assert view["identity"] == "node-1"
    assert view["location"] == (3, 4)


def test_end_to_end_delivery_on_line():
    net = build_static_net(line_positions(5), protocol="gpsr")
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-4", 64))
    net.sim.run(until=6.0)
    deliveries = net.deliveries()
    assert len(deliveries) == 1
    assert deliveries[0][0] == 4


def test_multihop_latency_reasonable():
    net = build_static_net(line_positions(5), protocol="gpsr")
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-4", 64))
    net.sim.run(until=6.0)
    (_, _, recv_time), = net.deliveries()
    (_, _, send_time), = net.sends()
    assert 0 < recv_time - send_time < 0.5


def test_delivery_to_direct_neighbor():
    net = build_static_net(line_positions(2), protocol="gpsr")
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-1", 64))
    net.sim.run(until=5.0)
    assert len(net.deliveries()) == 1


def test_loopback_delivers_immediately():
    net = build_static_net(line_positions(2), protocol="gpsr")
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-0", 64))
    net.sim.run(until=4.0)
    assert net.deliveries()[0][0] == 0


def test_greedy_deadend_drops_without_perimeter():
    # 0 -- 1    gap    2(dest): node 1 has no neighbor closer to 2.
    positions = [Position(0, 0), Position(200, 0), Position(900, 0)]
    net = build_static_net(positions, protocol="gpsr")
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-2", 64))
    net.sim.run(until=6.0)
    assert net.deliveries() == []
    drops = [r for r in net.tracer.filter("route.drop") if r.data["reason"] == "deadend"]
    assert drops


def test_unknown_destination_counts_no_location():
    net = build_static_net(line_positions(2), protocol="gpsr")
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("ghost", 64))
    net.sim.run(until=4.0)
    assert net.nodes[0].router.stats.drops_no_location == 1


def test_ttl_exhaustion_drops():
    config = GpsrConfig(data_ttl=2)
    net = build_static_net(line_positions(6), protocol="gpsr", gpsr_config=config)
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-5", 64))
    net.sim.run(until=6.0)
    assert net.deliveries() == []
    assert any(r.data["reason"] == "ttl" for r in net.tracer.filter("route.drop"))


def test_mac_failure_triggers_neighbor_eviction_and_reroute():
    """Feed node 1 a phantom neighbor: MAC failure must evict it and the
    packet still arrives through the real path."""
    net = build_static_net(line_positions(4), protocol="gpsr")
    net.sim.run(until=3.0)  # warm tables
    from repro.net.addresses import mac_for_node

    router = net.nodes[1].router
    router.table.update("phantom", mac_for_node(99), Position(390, 0), net.sim.now)
    net.sim.schedule(0.1, lambda: net.nodes[0].router.send_data("node-3", 64))
    net.sim.run(until=8.0)
    assert len(net.deliveries()) == 1
    assert "phantom" not in router.table


def test_duplicate_suppression():
    net = build_static_net(line_positions(3), protocol="gpsr")
    net.sim.run(until=3.0)
    router = net.nodes[2].router
    packet = GpsrData(
        payload_bytes=10,
        src_identity="node-0",
        dest_identity="node-2",
        dest_location=Position(400, 0),
        ttl=10,
    )
    router._handle_data(packet)
    router._handle_data(packet)
    assert router.stats.delivered == 1
    assert router.stats.duplicates == 1


VOID_TOPOLOGY = [
    Position(0, 0),      # 0 source
    Position(250, 0),    # 1 local maximum: all its neighbors are farther
    Position(100, 150),  # 2 detour (up and around the void)
    Position(200, 350),  # 3
    Position(400, 400),  # 4
    Position(560, 220),  # 5 re-enters greedy territory
    Position(600, 0),    # 6 destination (350 m from node 1: out of reach)
]


def test_void_topology_is_a_real_local_maximum():
    dest = VOID_TOPOLOGY[6]
    node1 = VOID_TOPOLOGY[1]
    neighbors_of_1 = [
        p for p in VOID_TOPOLOGY if p != node1 and p.distance_to(node1) <= 250
    ]
    assert neighbors_of_1  # connected
    assert all(p.distance_to(dest) > node1.distance_to(dest) for p in neighbors_of_1)


def test_perimeter_recovers_around_void():
    """Greedy fails at node 1; the right-hand rule must route the packet up
    and around the void to the destination."""
    config = GpsrConfig(enable_perimeter=True)
    net = build_static_net(VOID_TOPOLOGY, protocol="gpsr", gpsr_config=config)
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-6", 64))
    net.sim.run(until=8.0)
    assert len(net.deliveries()) == 1
    assert net.deliveries()[0][0] == 6
    modes = [r.data["mode"] for r in net.tracer.filter("route.forward")]
    assert "perimeter" in modes
    assert "greedy" in modes


def test_perimeter_disabled_same_topology_drops():
    net = build_static_net(VOID_TOPOLOGY, protocol="gpsr", gpsr_config=GpsrConfig())
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-6", 64))
    net.sim.run(until=8.0)
    assert net.deliveries() == []


def test_beacon_interval_jittered():
    net = build_static_net(line_positions(2), protocol="gpsr")
    net.sim.run(until=10.0)
    beacons = [r.time for r in net.tracer.filter("phy.tx") if r.data["packet_kind"] == "gpsr.beacon" and r.node == 0]
    gaps = {round(b - a, 3) for a, b in zip(beacons, beacons[1:])}
    assert len(gaps) > 1  # not metronomic


def test_router_stats_forwarded_counts():
    net = build_static_net(line_positions(4), protocol="gpsr")
    net.sim.schedule(3.0, lambda: net.nodes[0].router.send_data("node-3", 64))
    net.sim.run(until=6.0)
    total_forwarded = sum(n.router.stats.forwarded for n in net.nodes)
    assert total_forwarded == 3  # three hops
