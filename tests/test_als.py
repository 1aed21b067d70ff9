"""Tests for the Anonymous Location Service (Algorithm 3.3)."""

from __future__ import annotations

import random

import pytest

from repro.core.als import AlsAgent, AlsConfig, AlsReply, AlsRequest, AlsUpdate, make_index
from repro.experiments.overhead import _run_service_point
from repro.geo.grid import Grid
from repro.geo.region import Region
from repro.geo.vec import Position
from tests.conftest import build_static_net


def _grid():
    return Grid(Region.of_size(1500, 300), 5, 1)


def _als_net(num_nodes=30, seed=3, senders="all", **config_kwargs):
    rng = random.Random(seed)
    positions = []
    for i in range(num_nodes):
        x = (i % 10) * 150.0 + rng.uniform(0, 60)
        y = (i // 10) * 100.0 + rng.uniform(0, 60)
        positions.append(Position(min(x, 1499), min(y, 299)))
    net = build_static_net(positions, protocol="agfw")
    grid = _grid()
    agents = [
        AlsAgent(node, node.router, grid, AlsConfig(update_interval=5.0, **config_kwargs))
        for node in net.nodes
    ]
    if senders == "all":
        for agent in agents:
            agent.potential_senders = [
                n.identity for n in net.nodes if n.identity != agent.node.identity
            ]
    return net, grid, agents


# -------------------------------------------------------------------- index
def test_index_deterministic_and_shared():
    """A and B must independently derive the same index E_KB(A, B)."""
    assert make_index("A", "B", None) == make_index("A", "B", None)


def test_index_varies_by_pair():
    assert make_index("A", "B", None) != make_index("A", "C", None)
    assert make_index("A", "B", None) != make_index("B", "A", None)


def test_index_real_mode_uses_requester_key(rsa_keys):
    pub = rsa_keys[0].public()
    index = make_index("A", "B", pub, mode="real")
    assert len(index) == pub.byte_size
    assert index == make_index("A", "B", pub, mode="real")
    assert index != make_index("A", "B", rsa_keys[1].public(), mode="real")


# ----------------------------------------------------------------- protocol
def test_update_packets_carry_no_cleartext_identity():
    net, grid, agents = _als_net(10)
    agents[0].send_updates()
    # The update wire image must contain neither identity nor location.
    assert agents[0].messages_sent > 0
    update = AlsUpdate(
        uid=1,
        target_location=Position(0, 0),
        index=make_index("A", "B", None),
        blob=None,
    )
    view = update.wire_view()
    assert "identity" not in view
    assert "location" not in view


def test_full_anonymous_lookup_roundtrip():
    net, grid, agents = _als_net()
    for node in net.nodes:
        pass  # routers already started by fixture
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)
    results = []
    requester_index, target_index = 5, 20
    net.sim.schedule(
        0.1,
        lambda: agents[requester_index].lookup(
            net.nodes[requester_index], net.nodes[target_index].identity, results.append
        ),
    )
    net.sim.run(until=18.0)
    assert len(results) == 1
    assert results[0] is not None
    assert results[0].distance_to(net.nodes[target_index].position) < 1.0


def test_finished_lookup_opens_each_reply_blob_once(monkeypatch):
    """The requester opens the reply's blobs once to recognise it as its
    own, and that match finishes the lookup: one charged open per blob."""
    net, grid, agents = _als_net()
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)
    requester = agents[5]
    requester.potential_senders = []  # no sealing while the lookup runs
    opened = []
    real_open = requester.sealer.try_open

    def try_open(blob, *args):
        opened.append(blob)
        return real_open(blob, *args)

    monkeypatch.setattr(requester.sealer, "try_open", try_open)
    before = requester.crypto_ops
    results = []
    net.sim.schedule(
        0.1,
        lambda: requester.lookup(requester.node, net.nodes[20].identity, results.append),
    )
    net.sim.run(until=18.0)
    assert results and results[0] is not None
    assert opened and len({id(blob) for blob in opened}) == len(opened)
    assert requester.crypto_ops - before == len(opened)


def test_lookup_fails_when_updater_did_not_anticipate_requester():
    """The paper's stated limitation: B can only find A if A updated an
    entry for B."""
    net, grid, agents = _als_net(senders="none")
    for agent in agents:
        agent.potential_senders = []  # nobody anticipates anyone
        agent.start()
    net.sim.run(until=12.0)
    results = []
    net.sim.schedule(
        0.1, lambda: agents[5].lookup(net.nodes[5], net.nodes[20].identity, results.append)
    )
    net.sim.run(until=25.0)
    assert results == [None]


def test_server_stores_only_ciphertext():
    net, grid, agents = _als_net()
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)
    holders = [a for a in agents if a.blobs]
    assert holders
    for holder in holders:
        for blob_entry in holder.blobs.values():
            # The server can only see size; contents are sealed for B.
            assert blob_entry.blob.wire_view() == {"opaque_bytes": 64}


def test_no_index_variant_returns_blob_sets():
    # Without the index the server returns *everything* it holds (the
    # paper's communication-overhead trade, visible here as a large reply).
    net, grid, agents = _als_net(include_index=False)
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)
    results = []
    net.sim.schedule(
        0.1, lambda: agents[5].lookup(net.nodes[5], net.nodes[20].identity, results.append)
    )
    net.sim.run(until=18.0)
    assert len(results) == 1
    assert results[0] is not None


def test_no_index_request_omits_index_field():
    net, grid, agents = _als_net(include_index=False, senders="none")
    agents[5].potential_senders = []
    sent_packets = []
    original = agents[5].router.forward_location_packet

    def spy(packet, deliver_local):
        sent_packets.append(packet)
        original(packet, deliver_local)

    agents[5].router.forward_location_packet = spy
    agents[5].lookup(net.nodes[5], "node-20", lambda _p: None)
    requests = [p for p in sent_packets if isinstance(p, AlsRequest)]
    assert requests and requests[0].index is None


def test_reply_blobs_opaque_on_wire():
    reply = AlsReply(uid=1, target_location=Position(0, 0), blobs=())
    assert reply.wire_view() == {"blobs": []}


def test_crypto_accounting_grows_with_updates():
    net, grid, agents = _als_net(10)
    before = agents[0].crypto_ops
    agents[0].send_updates()
    assert agents[0].crypto_ops > before
    assert agents[0].crypto_time_charged > 0


def test_update_cost_scales_with_potential_senders():
    """The paper's limitation, quantified: one entry per anticipated sender."""
    net, grid, agents = _als_net(12, senders="none")
    few, many = agents[0], agents[1]
    few.potential_senders = ["node-2"]
    many.potential_senders = [f"node-{i}" for i in range(2, 10)]
    few.send_updates()
    many.send_updates()
    assert many.messages_sent == 8 * few.messages_sent


def test_invalid_mode_rejected():
    net, grid, _agents = _als_net(4)
    with pytest.raises(ValueError):
        AlsAgent(net.nodes[0], net.nodes[0].router, grid, mode="bogus", install=False)


def test_no_index_server_replies_with_every_fresh_ciphertext():
    # Without the index a server holds no key to pick one blob by, so a
    # target is found only if the reply carries every fresh ciphertext.
    with_index = _run_service_point("als", 20, 7, 6, 5.0, True, 4)
    without_index = _run_service_point("als", 20, 7, 6, 5.0, False, 4)
    assert with_index.lookups_answered == 4
    assert without_index.lookups_answered == with_index.lookups_answered
    assert without_index.bytes > with_index.bytes
