"""Tests for ALS heterogeneous update strategies (paper Sections 3.3/4).

"In practice, a node may not need to hide its identity or location all
the time ... Once the node does not need a strict privacy protection
any more, it can switch to a normal location service in order to reduce
the effort needed to be accessed by potential senders."
"""

from __future__ import annotations

import random

from repro.core.als import AlsAgent, AlsConfig
from repro.geo.grid import Grid
from repro.geo.region import Region
from repro.geo.vec import Position
from tests.conftest import build_static_net


def _als_net(num_nodes=30, seed=3):
    rng = random.Random(seed)
    positions = []
    for i in range(num_nodes):
        x = (i % 10) * 150.0 + rng.uniform(0, 60)
        y = (i // 10) * 100.0 + rng.uniform(0, 60)
        positions.append(Position(min(x, 1499), min(y, 299)))
    net = build_static_net(positions, protocol="agfw")
    grid = Grid(Region.of_size(1500, 300), 5, 1)
    agents = [
        AlsAgent(node, node.router, grid, AlsConfig(update_interval=5.0))
        for node in net.nodes
    ]
    return net, grid, agents


def test_public_node_reachable_without_anticipation():
    """A node with privacy off is findable by *anyone* — no potential-sender
    list required (that is the point of switching)."""
    net, grid, agents = _als_net()
    agents[20].set_privacy(False)  # node-20 opts out of privacy
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)
    results = []
    net.sim.schedule(
        0.1, lambda: agents[5].lookup(net.nodes[5], "node-20", results.append)
    )
    net.sim.run(until=30.0)  # allow the anonymous-then-plain fallback
    assert len(results) == 1
    assert results[0] is not None
    assert results[0].distance_to(net.nodes[20].position) < 1.0


def test_public_updates_cost_less_than_private():
    """One plain update per server grid vs one encrypted entry per
    anticipated sender — the effort reduction the paper describes."""
    net, grid, agents = _als_net(12)
    private, public = agents[0], agents[1]
    private.potential_senders = [f"node-{i}" for i in range(2, 10)]
    public.set_privacy(False)
    private.send_updates()
    public.send_updates()
    assert public.messages_sent < private.messages_sent
    assert public.crypto_ops == 0
    assert private.crypto_ops > 0


def test_public_updates_leak_doublets_private_do_not():
    """The trade is explicit: plain updates expose the doublet again."""
    net, grid, agents = _als_net(10)
    from repro.adversary.sniffer import GlobalSniffer
    from repro.adversary.tracker import DoubletTracker

    sniffer = GlobalSniffer(net.tracer)
    agents[0].potential_senders = ["node-1"]
    agents[1].set_privacy(False)
    agents[0].send_updates()
    agents[1].send_updates()
    net.sim.run(until=3.0)
    tracker = DoubletTracker()
    tracker.ingest(sniffer.observations)
    exposed = tracker.exposed_identities()
    assert "node-1" in exposed  # the public node is visible again
    assert "node-0" not in exposed  # the private node stays hidden


def test_plain_store_kept_separate_from_ciphertext_store():
    net, grid, agents = _als_net(10)
    agents[1].set_privacy(False)
    agents[0].potential_senders = ["node-2"]
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)
    holders_plain = [a for a in agents if a.store]
    holders_cipher = [a for a in agents if a.blobs]
    assert holders_plain  # node-1's plain entry landed somewhere
    assert holders_cipher  # node-0's encrypted entry landed somewhere
    for holder in holders_plain:
        assert all(e.identity == "node-1" for e in holder.store.values())


def test_private_lookup_still_works_when_others_are_public():
    net, grid, agents = _als_net()
    for agent in agents[1:]:
        agent.set_privacy(False)
    agents[20].set_privacy(True)
    agents[20].potential_senders = ["node-5"]
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)
    results = []
    net.sim.schedule(
        0.1, lambda: agents[5].lookup(net.nodes[5], "node-20", results.append)
    )
    net.sim.run(until=20.0)
    assert results and results[0] is not None


def test_mixed_network_answers_in_cell_plain_fallbacks():
    """In the ``als-mixed`` determinism config, 7→9 and 11→3 are public
    targets looked up from inside their own server grid: the plain
    fallback arrives at its own sender, which answers from the plain
    entry it holds as a server."""
    from tests.trace_digest import _als_mixed_records

    results = _als_mixed_records()[-6:]
    answered = {(a, b) for a, b, position in results if position is not None}
    assert answered == {(5, 20), (7, 9), (11, 3), (2, 21), (8, 12), (13, 15)}


def test_lookup_served_on_the_spot_arms_no_timeout(monkeypatch):
    """A request made inside its target's server grid can be answered
    before it leaves its sender: the anonymous one from the requester's
    own copy of the target's ciphertext, the plain fallback from its own
    plain entry.  Such a lookup has finished, so no ``req_to`` timer may
    outlive it."""
    from repro.location.dlm import DlmAgent

    late = []
    on_timeout = DlmAgent._on_lookup_timeout

    def recording(agent, identity):
        if identity not in agent._pending:
            late.append((agent.node.identity, identity))
        on_timeout(agent, identity)

    monkeypatch.setattr(DlmAgent, "_on_lookup_timeout", recording)
    net, grid, agents = _als_net()
    private, public = agents[20], agents[9]
    public.set_privacy(False)
    requesters = {}
    for target in (private, public):
        home = grid.home_cells(target.node.identity, 1)[0]
        requesters[target] = next(
            a for a in agents
            if a is not target and grid.cell_of(a.node.position) == home
        )
    private.potential_senders = [requesters[private].node.identity]
    for agent in agents:
        agent.start()
    net.sim.run(until=12.0)

    def timers():
        return [e for e in net.sim.iter_pending() if e.name.endswith(".req_to")]

    results = []
    requester = requesters[private]
    requester.lookup(requester.node, private.node.identity, results.append)
    assert results and results[0] is not None  # answered before lookup returns
    assert timers() == []

    requester = requesters[public]
    requester.lookup(requester.node, public.node.identity, results.append)
    config = requester.config
    # The anonymous attempts time out; the plain fallback then finishes
    # the lookup on the spot.
    net.sim.run(until=net.sim.now + (config.request_retries + 1.5) * config.request_timeout)
    assert len(results) == 2 and results[1] is not None
    assert timers() == []
    net.sim.run(until=net.sim.now + 3 * config.request_timeout)
    assert late == []
