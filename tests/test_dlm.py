"""Tests for the DLM location service over GPSR."""

from __future__ import annotations

from repro.geo.grid import Grid
from repro.geo.region import Region
from repro.geo.vec import Position
from repro.location.dlm import DlmAgent, DlmConfig, DlmReply, DlmRequest, DlmUpdate
from tests.conftest import build_static_net


def _grid():
    return Grid(Region.of_size(1500, 300), 5, 1)


def _dense_net(num_nodes=30, seed=3):
    """A connected static field covering all grid cells."""
    import random

    rng = random.Random(seed)
    # Deterministic lattice + jitter guarantees coverage of every cell.
    positions = []
    for i in range(num_nodes):
        x = (i % 10) * 150.0 + rng.uniform(0, 60)
        y = (i // 10) * 100.0 + rng.uniform(0, 60)
        positions.append(Position(min(x, 1499), min(y, 299)))
    net = build_static_net(positions, protocol="gpsr")
    grid = _grid()
    agents = [
        DlmAgent(node, node.router, grid, DlmConfig(update_interval=5.0))
        for node in net.nodes
    ]
    return net, grid, agents


def test_install_registers_handlers_and_service():
    net, grid, agents = _dense_net(10)
    router = net.nodes[0].router
    assert router.location_service is agents[0]
    assert DlmUpdate in router.packet_handlers
    assert DlmRequest in router.packet_handlers
    assert DlmReply in router.packet_handlers


def test_updates_reach_server_grid():
    net, grid, agents = _dense_net()
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)
    # Someone inside each updater's home cell must have stored its entry.
    stored_total = sum(agent.updates_stored for agent in agents)
    assert stored_total > 0
    target = net.nodes[0].identity
    holders = [a for a in agents if target in a.store]
    assert holders
    home = grid.home_cells(target, 1)[0]
    for holder in holders:
        assert grid.cell_of(holder.node.position) == home


def test_lookup_roundtrip():
    net, grid, agents = _dense_net()
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)
    results = []
    requester = net.nodes[5]
    target = net.nodes[20]
    net.sim.schedule(
        0.1, lambda: agents[5].lookup(requester, target.identity, results.append)
    )
    net.sim.run(until=18.0)
    assert len(results) == 1
    assert results[0] is not None
    assert results[0].distance_to(target.position) < 1.0  # static: exact


def test_lookup_unknown_identity_times_out():
    net, grid, agents = _dense_net(12)
    for agent in agents:
        agent.start()
    net.sim.run(until=8.0)
    results = []
    net.sim.schedule(0.1, lambda: agents[0].lookup(net.nodes[0], "ghost", results.append))
    net.sim.run(until=20.0)
    assert results == [None]
    assert agents[0].lookups_failed == 1


def test_local_cache_short_circuits():
    net, grid, agents = _dense_net(10)
    from repro.location.dlm import StoredLocation

    agents[0].store["node-5"] = StoredLocation("node-5", Position(1, 2), 0.0, net.sim.now)
    results = []
    agents[0].lookup(net.nodes[0], "node-5", results.append)
    assert results == [Position(1, 2)]
    assert agents[0].messages_sent == 0


def test_stale_entries_not_served():
    net, grid, agents = _dense_net(10)
    from repro.location.dlm import StoredLocation

    agents[0].store["node-5"] = StoredLocation("node-5", Position(1, 2), 0.0, -100.0)
    results = []
    agents[0].lookup(net.nodes[0], "node-5", results.append)
    assert results == []  # stale: went to the network instead


def test_update_packets_leak_doublets():
    """DLM's privacy failure, asserted: updates carry cleartext doublets."""
    update = DlmUpdate(
        uid=1,
        target_location=Position(0, 0),
        identity="node-3",
        position=Position(7, 8),
        timestamp=1.0,
    )
    view = update.wire_view()
    assert view["identity"] == "node-3"
    assert view["location"] == (7, 8)


def test_request_leaks_requester():
    request = DlmRequest(
        uid=1,
        target_location=Position(0, 0),
        requester_identity="node-1",
        requester_location=Position(3, 4),
        target_identity="node-2",
    )
    view = request.wire_view()
    assert view["requester_identity"] == "node-1"
    assert view["target_identity"] == "node-2"


def test_is_server_for():
    net, grid, agents = _dense_net(10)
    identity = net.nodes[0].identity
    home = grid.home_cells(identity, 1)[0]
    for agent in agents:
        expected = grid.cell_of(agent.node.position) == home
        assert agent.is_server_for(identity) == expected


def test_home_cells_respect_config():
    net, grid, agents = _dense_net(4)
    agent = DlmAgent(
        net.nodes[0], net.nodes[0].router, grid,
        DlmConfig(servers_per_node=3), install=False,
    )
    assert len(agent.home_cells()) == 3


def test_lookup_from_inside_the_target_server_grid_reaches_cell_mates():
    """A request made inside its target's server grid arrives at once at
    its own sender; without its own entry, the sender puts it before its
    cell-mates, which hold the replicated entry and answer."""
    net, grid, agents = _dense_net()
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)
    target = net.nodes[20]
    home = grid.home_cells(target.identity, 1)[0]
    requester = next(
        a for a in agents
        if a.node is not target and grid.cell_of(a.node.position) == home
    )
    assert any(target.identity in a.store for a in agents if a is not requester)
    requester.store.pop(target.identity, None)
    requester.config.update_interval = 1e9  # no entry may arrive meanwhile
    results = []
    net.sim.schedule(
        0.1, lambda: requester.lookup(requester.node, target.identity, results.append)
    )
    net.sim.run(until=13.0)  # well inside the first request's timeout
    assert target.identity not in requester.store
    assert results and results[0].distance_to(target.position) < 1.0
