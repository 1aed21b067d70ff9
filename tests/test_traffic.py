"""Tests for traffic sources, workloads, and the oracle location service."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.vec import Position
from repro.location.service import OracleLocationService
from repro.traffic.cbr import CbrFlow, CbrSource
from repro.traffic.workload import _near_candidates, make_flows, make_paper_flows
from tests.conftest import build_static_net, line_positions


# -------------------------------------------------------------------- flows
def test_flow_validation():
    with pytest.raises(ValueError):
        CbrFlow(0, "d", rate_pps=0)
    with pytest.raises(ValueError):
        CbrFlow(0, "d", payload_bytes=0)
    with pytest.raises(ValueError):
        CbrFlow(0, "d", start_time=5.0, stop_time=1.0)


def test_cbr_source_rate():
    net = build_static_net(line_positions(2), protocol="gpsr")
    flow = CbrFlow(0, "node-1", rate_pps=4.0, start_time=1.0, stop_time=6.0)
    source = CbrSource(net.sim, net.nodes[0], flow)
    source.start()
    net.sim.run(until=10.0)
    # ~4 pps over 5 s window (jittered start): 18..21 packets.
    assert 17 <= source.packets_sent <= 21


def test_cbr_stops_at_stop_time():
    net = build_static_net(line_positions(2), protocol="gpsr")
    flow = CbrFlow(0, "node-1", rate_pps=10.0, start_time=1.0, stop_time=2.0)
    source = CbrSource(net.sim, net.nodes[0], flow)
    source.start()
    net.sim.run(until=10.0)
    sent_after = source.packets_sent
    assert sent_after <= 11


def test_cbr_source_node_mismatch():
    net = build_static_net(line_positions(2), protocol="gpsr")
    flow = CbrFlow(1, "node-0")
    with pytest.raises(ValueError):
        CbrSource(net.sim, net.nodes[0], flow)


def test_cbr_packets_actually_delivered():
    net = build_static_net(line_positions(3), protocol="gpsr")
    flow = CbrFlow(0, "node-2", rate_pps=2.0, start_time=2.0, stop_time=5.0)
    source = CbrSource(net.sim, net.nodes[0], flow)
    source.start()
    net.sim.run(until=8.0)
    assert len(net.deliveries()) == source.packets_sent


# ----------------------------------------------------------------- workload
def test_paper_flow_counts():
    rng = random.Random(0)
    ids = list(range(50))
    identities = [f"node-{i}" for i in ids]
    flows = make_paper_flows(ids, identities, rng)
    assert len(flows) == 30
    assert len({f.src_node_id for f in flows}) == 20
    assert all(f.rate_pps == 4.0 and f.payload_bytes == 64 for f in flows)


def test_no_self_flows():
    rng = random.Random(1)
    ids = list(range(10))
    identities = [f"node-{i}" for i in ids]
    flows = make_flows(ids, identities, num_flows=40, num_senders=5, rng=rng)
    for flow in flows:
        assert flow.dest_identity != f"node-{flow.src_node_id}"


def test_start_window_respected():
    rng = random.Random(2)
    ids = list(range(10))
    identities = [f"node-{i}" for i in ids]
    flows = make_flows(ids, identities, 20, 5, rng, start_window=(3.0, 7.0))
    assert all(3.0 <= f.start_time <= 7.0 for f in flows)


def test_workload_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        make_flows([0, 1], ["a", "b"], 5, 3, rng)  # more senders than nodes
    with pytest.raises(ValueError):
        make_flows([0], ["a"], 1, 1, rng)  # one node: no possible dest
    with pytest.raises(ValueError):
        make_flows([0, 1], ["a", "b"], 0, 1, rng)


def test_workload_deterministic():
    ids = list(range(20))
    identities = [f"node-{i}" for i in ids]
    a = make_flows(ids, identities, 10, 5, random.Random(7))
    b = make_flows(ids, identities, 10, 5, random.Random(7))
    assert a == b


def test_workload_locality_draws_near_destinations():
    ids = list(range(20))
    identities = [f"node-{i}" for i in ids]
    positions = [(100.0 * i, 0.0) for i in ids]
    flows = make_flows(
        ids, identities, 30, 10, random.Random(3),
        positions=positions, locality=250.0,
    )
    index = {f"node-{i}": i for i in ids}
    assert len(flows) == 30
    for flow in flows:
        dst = index[flow.dest_identity]
        assert dst != flow.src_node_id
        assert abs(positions[dst][0] - positions[flow.src_node_id][0]) <= 250.0


def test_workload_locality_fallback_keeps_flow_count():
    """A sender with no neighbour in range still gets a (distant) flow."""
    ids = list(range(6))
    identities = [f"node-{i}" for i in ids]
    positions = [(10_000.0 * i, 0.0) for i in ids]  # spacing >> locality
    flows = make_flows(
        ids, identities, 12, 6, random.Random(4),
        positions=positions, locality=500.0,
    )
    assert len(flows) == 12
    for flow in flows:
        assert flow.dest_identity != f"node-{flow.src_node_id}"


def test_workload_locality_requires_positions():
    ids = list(range(10))
    identities = [f"node-{i}" for i in ids]
    with pytest.raises(ValueError):
        make_flows(ids, identities, 5, 5, random.Random(0), locality=100.0)
    with pytest.raises(ValueError):
        make_flows(
            ids, identities, 5, 5, random.Random(0),
            positions=[(0.0, 0.0)], locality=100.0,  # wrong length
        )


@pytest.mark.parametrize("locality", [math.nan, math.inf, -math.inf, 0.0, -250.0])
def test_workload_locality_rejects_non_positive_or_non_finite(locality):
    """A NaN reach used to pass every check and silently turn every flow
    into the next-node-id fallback."""
    ids = list(range(10))
    identities = [f"node-{i}" for i in ids]
    positions = [(100.0 * i, 0.0) for i in ids]
    with pytest.raises(ValueError, match="positive finite"):
        make_flows(
            ids, identities, 5, 5, random.Random(0),
            positions=positions, locality=locality,
        )


def _brute_near(node_ids, positions, src, locality):
    """The reference: scan every node with the workload's distance test."""
    sx, sy = positions[node_ids.index(src)]
    reach = locality * locality
    return [
        j
        for j, (x, y) in enumerate(positions)
        if node_ids[j] != src and (x - sx) ** 2 + (y - sy) ** 2 <= reach
    ]


def _brute_flows(node_ids, identities, num_flows, num_senders, rng, positions, locality):
    """``make_flows`` with ``locality`` set, as a scan of every node per sender."""
    senders = rng.sample(list(node_ids), num_senders)
    flows = []
    for i in range(num_flows):
        src = senders[i % num_senders]
        cands = _brute_near(node_ids, positions, src, locality)
        if cands:
            dest_index = cands[rng.randrange(len(cands))]
        else:
            dest_index = (node_ids.index(src) + 1) % len(node_ids)
        flows.append(
            CbrFlow(src, identities[dest_index], start_time=rng.uniform(5.0, 30.0))
        )
    return flows


_LOCALITIES = st.one_of(
    st.sampled_from([1.0, 0.1, 250.0, 900.0, 1e-3, 3.0e4]),
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False),
)


@st.composite
def _layouts(draw):
    """``(positions, locality)`` over the shapes the cell index must survive.

    Base layouts are uniform, clustered, a lattice on cell-width and
    locality multiples, and a sparse line where every sender falls back.
    Extra points sit exactly ``locality`` from an existing one (axis
    offsets and a 3-4-5 diagonal) or duplicate one.  Coordinates go
    negative throughout.
    """
    locality = draw(_LOCALITIES)
    cell = 2.0 * locality
    n = draw(st.integers(min_value=2, max_value=40))
    layout = draw(st.sampled_from(["uniform", "clustered", "lattice", "sparse"]))
    span = locality * draw(st.sampled_from([0.5, 3.0, 12.0]))
    coord = st.floats(min_value=-span, max_value=span, allow_nan=False)
    if layout == "uniform":
        points = [(draw(coord), draw(coord)) for _ in range(n)]
    elif layout == "clustered":
        centers = [(draw(coord) * 10, draw(coord) * 10) for _ in range(draw(st.integers(1, 4)))]
        offset = st.floats(min_value=-locality, max_value=locality, allow_nan=False)
        points = []
        for _ in range(n):
            cx, cy = draw(st.sampled_from(centers))
            points.append((cx + draw(offset), cy + draw(offset)))
    elif layout == "lattice":
        step = draw(st.sampled_from([cell, locality, cell / 3.0]))
        k = st.integers(min_value=-5, max_value=5)
        points = [(draw(k) * step, draw(k) * step) for _ in range(n)]
    else:
        points = [(-5.0 * cell * i, 0.0) for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        bx, by = draw(st.sampled_from(points))
        dx, dy = draw(
            st.sampled_from(
                [(locality, 0.0), (-locality, 0.0), (0.0, locality), (0.0, -locality),
                 (0.6 * locality, 0.8 * locality), (0.0, 0.0)]
            )
        )
        points.append((bx + dx, by + dy))
    return points, locality


@settings(max_examples=200, deadline=None)
@given(_layouts(), st.integers(min_value=0, max_value=2**32), st.randoms(use_true_random=False))
def test_bucketed_locality_matches_brute_scan(layout, seed, shuffler):
    positions, locality = layout
    node_ids = [3 * i + 7 for i in range(len(positions))]
    shuffler.shuffle(node_ids)  # ids need not follow index order
    identities = [f"node-{nid}" for nid in node_ids]
    index_of = {nid: i for i, nid in enumerate(node_ids)}
    near = _near_candidates(node_ids, positions, node_ids, index_of, locality)
    for src in node_ids:
        assert near[src] == _brute_near(node_ids, positions, src, locality)
    num_senders = len(node_ids)
    got = make_flows(
        node_ids, identities, 2 * num_senders, num_senders, random.Random(seed),
        positions=positions, locality=locality,
    )
    want = _brute_flows(
        node_ids, identities, 2 * num_senders, num_senders, random.Random(seed),
        positions, locality,
    )
    assert got == want


# ------------------------------------------------------------------- oracle
def test_oracle_lookup_exact():
    net = build_static_net(line_positions(3), protocol="gpsr")
    results = []
    net.oracle.lookup(net.nodes[0], "node-2", results.append)
    assert results == [Position(400, 0)]


def test_oracle_unknown_identity():
    net = build_static_net(line_positions(2), protocol="gpsr")
    results = []
    net.oracle.lookup(net.nodes[0], "nobody", results.append)
    assert results == [None]


def test_oracle_staleness():
    from repro.sim.engine import Simulator
    from repro.net.medium import RadioMedium
    from repro.net.mobility import RandomWaypointMobility
    from repro.net.node import Node
    from repro.geo.region import Region
    from repro.sim.rng import RngRegistry

    sim = Simulator()
    medium = RadioMedium(sim)
    region = Region.of_size(1000, 1000)
    rngs = RngRegistry(1)
    mobility = RandomWaypointMobility(sim, region, random.Random(1), pause_time=0.0)
    node = Node(sim, 0, medium, mobility, rngs)
    oracle = OracleLocationService(sim, staleness=10.0)
    oracle.register(node)
    sim.run(until=60.0)
    fresh, stale = [], []
    OracleLocationService(sim).register(node)
    oracle.lookup(node, "node-0", stale.append)
    assert stale[0] == mobility.position_at(50.0)  # 10 s behind


def test_oracle_rejects_negative_staleness():
    from repro.sim.engine import Simulator

    with pytest.raises(ValueError):
        OracleLocationService(Simulator(), staleness=-1.0)
