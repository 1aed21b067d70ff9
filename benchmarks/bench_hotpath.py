"""Vectorized hot-core benchmarks: spatial fan-out, mobility, whole stack.

Not a paper table — these price the PR 7 tentpole.  The pure-Python
medium pays an interpreter round trip per radio per transmission; the
array index batches exactly that work.  Three pairs:

* ``test_neighbor_gather_150_nodes`` — **acceptance micro #1**: classify
  one broadcast fan-out for every node at the paper's top density, the
  brute reference (per-radio scalar interpolation/distance over every
  radio, as ``reference=True`` does) vs
  ``ArraySpatialIndex.classify_fanout`` (one batched sweep).
  ``bench_to_json.py --suite hotpath`` derives
  ``neighbor_gather_speedup`` (floor: 5x).
* ``test_batch_mobility_150_legs`` — **acceptance micro #2**: every
  node's position at a sweep of instants, scalar
  ``WaypointLeg.position_at`` loop vs ``batch_position_at`` into
  preallocated buffers.  Derived ``batch_mobility_speedup`` (floor: 5x).
* ``test_end_to_end_scenario_150`` — the whole-stack number: a 150-node
  AGFW run on the reference scan (``reference=True``) vs the
  default array index.  Derived
  ``scenario_hotpath_speedup`` (floor: 1.3x).

All pairs run the *same* workload to bitwise-identical results (the
equivalence suites prove it); only wall-clock may differ.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.geo import vecops
from repro.geo.spatial_array import ArraySpatialIndex
from repro.geo.vec import Position
from repro.net.mobility import WaypointLeg

NUM_NODES = 150
RADIO_RANGE = 250.0
INTERFERENCE_RANGE = 550.0
ARENA = (1500.0, 300.0)


class _Stub:
    """Just enough radio for an index: a node id and a mobility model."""

    __slots__ = ("node_id", "mobility")

    def __init__(self, node_id: int, mobility) -> None:
        self.node_id = node_id
        self.mobility = mobility


class _LegMobility:
    """A frozen waypoint leg — the RWP shape without an engine attached,
    so the micro times interpolation, not leg re-rolls."""

    __slots__ = ("_leg", "max_speed")

    def __init__(self, leg: WaypointLeg, max_speed: float = 20.0) -> None:
        self._leg = leg
        self.max_speed = max_speed

    def position_at(self, time: float) -> Position:
        return self._leg.position_at(time)

    def subscribe(self, callback) -> None:
        """Continuous trajectory: no discontinuities to notify."""

    @property
    def current_leg(self) -> WaypointLeg:
        return self._leg


def _population(seed: int = 1):
    """150 nodes mid-flight on long legs (the mobile steady state)."""
    rng = random.Random(seed)
    radios = []
    for i in range(NUM_NODES):
        origin = Position(rng.uniform(0, ARENA[0]), rng.uniform(0, ARENA[1]))
        target = Position(rng.uniform(0, ARENA[0]), rng.uniform(0, ARENA[1]))
        leg = WaypointLeg(origin, target, rng.uniform(5.0, 20.0), 0.0)
        radios.append(_Stub(i, _LegMobility(leg)))
    return radios


#: One classification per instant, round-robin senders — the medium's
#: actual call pattern (every transmission lands at a fresh ``now``).
GATHER_STEPS = [(0.002 * k, k % NUM_NODES) for k in range(300)]


def _gather_brute(radios) -> int:
    """The medium's brute fan-out classification, per transmission:
    interpolate the sender, then interpolate and classify every other
    radio one by one."""
    r2 = RADIO_RANGE * RADIO_RANGE
    i2 = INTERFERENCE_RANGE * INTERFERENCE_RANGE
    hits = 0
    for now, sender_idx in GATHER_STEPS:
        sender = radios[sender_idx]
        sender_pos = sender.mobility.position_at(now)
        for radio in radios:
            if radio is sender:
                continue
            rpos = radio.mobility.position_at(now)
            d2 = rpos.distance2_to(sender_pos)
            if d2 > i2:
                continue
            hits += 1
            if d2 <= r2:
                hits += 1
    return hits


def _gather_array(index: ArraySpatialIndex, radios) -> int:
    r2 = RADIO_RANGE * RADIO_RANGE
    i2 = INTERFERENCE_RANGE * INTERFERENCE_RANGE
    hits = 0
    for now, sender_idx in GATHER_STEPS:
        fan = index.classify_fanout(sender_idx, now, INTERFERENCE_RANGE, r2, i2)
        hits += len(fan.rows) + sum(fan.deliverable)
    return hits


@pytest.mark.benchmark(group="hotpath")
@pytest.mark.parametrize("backend", ["brute", "array"])
def test_neighbor_gather_150_nodes(benchmark, backend):
    radios = _population()
    if backend == "brute":
        result = benchmark(_gather_brute, radios)
    else:
        index = ArraySpatialIndex(cell_size=INTERFERENCE_RANGE)
        for radio in radios:
            index.add(radio, 0.0)
        result = benchmark(_gather_array, index, radios)
    assert result > 0


def _legs(seed: int = 2):
    rng = random.Random(seed)
    legs = []
    for _ in range(NUM_NODES):
        origin = Position(rng.uniform(0, ARENA[0]), rng.uniform(0, ARENA[1]))
        target = Position(rng.uniform(0, ARENA[0]), rng.uniform(0, ARENA[1]))
        legs.append(WaypointLeg(origin, target, rng.uniform(1.0, 20.0), 0.0))
    return legs


QUERY_TIMES = [0.05 * k for k in range(200)]


@pytest.mark.benchmark(group="hotpath")
@pytest.mark.parametrize("path", ["scalar", "batch"])
def test_batch_mobility_150_legs(benchmark, path):
    legs = _legs()
    if path == "scalar":

        def run():
            acc = 0.0
            for t in QUERY_TIMES:
                for leg in legs:
                    pos = leg.position_at(t)
                    acc += pos.x + pos.y
            return acc

    else:
        import numpy as np

        arrays = vecops.LegArrays(capacity=NUM_NODES)
        for leg in legs:
            arrays.set_leg(arrays.append_row(), leg)
        out_x = np.empty(NUM_NODES)
        out_y = np.empty(NUM_NODES)

        def run():
            acc = 0.0
            for t in QUERY_TIMES:
                x, y = vecops.batch_position_at(arrays, t, out_x, out_y)
                acc += float(x.sum()) + float(y.sum())
            return acc

    assert benchmark(run) != 0.0


def _scenario(reference: bool) -> float:
    config = ScenarioConfig(
        protocol="agfw",
        num_nodes=NUM_NODES,  # the paper sweep's top density
        sim_time=2.0,
        traffic_start=(0.5, 1.5),
        num_flows=15,
        num_senders=10,
        seed=7,
        # Nodes must actually move inside the short horizon (the paper's
        # 60 s pause would freeze everyone for the whole 2 s window) —
        # same convention as the medium-equivalence suite.
        pause_time=0.0,
        min_speed=5.0,
        reference=reference,
    )
    result = Scenario(config).run()
    return result.delivery_fraction


@pytest.mark.benchmark(group="hotpath")
@pytest.mark.parametrize("stack", ["baseline", "fast"])
def test_end_to_end_scenario_150(benchmark, stack):
    fraction = benchmark.pedantic(_scenario, args=(stack == "baseline",), rounds=3)
    assert fraction > 0.0
