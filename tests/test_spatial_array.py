"""Array spatial index: unit contracts + whole-scenario equivalence.

The index (the default medium) is only admissible because it is
*outcome-invisible*: candidates come back in registration order, every
escaping float is bitwise what the brute scalar scan computes, and whole
scenarios — mobile, faulted, and multiprocess — trace identically on the
index and on the brute reference (``reference=True``).  The
:class:`~tests.conftest.CheckedMedium` additionally re-derives every
fan-out with the brute scan inside the run, so a passing checked run is
a per-transmission proof for that workload; the negative cases below
show that it fires.
"""

from __future__ import annotations

import math
import random
import struct

import pytest

from repro.campaign import ResultStore, config_digest, run_campaign, spec_from_mapping
from repro.experiments.scenario import ScenarioConfig
from repro.faults import FaultPlan
from repro.geo.spatial_array import ArraySpatialIndex, FanOut
from repro.geo.vec import Position
from repro.geo.region import Region
from repro.net.addresses import BROADCAST, MacAddress
from repro.net.mac.frames import FrameKind, MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import RandomWaypointMobility, StaticMobility
from repro.net.phy import PhyRadio
from repro.sim.engine import Simulator
from tests.conftest import CheckedMedium, assert_reference_matches


# ------------------------------------------------------------ unit level
def _static_population(seed: int, n: int = 30, medium_class=RadioMedium):
    """A medium with ``n`` static radios scattered over the paper arena."""
    rng = random.Random(seed)
    sim = Simulator()
    medium = medium_class(sim)
    radios = [
        PhyRadio(
            sim,
            i,
            medium,
            StaticMobility(Position(rng.uniform(0, 1500), rng.uniform(0, 300))),
        )
        for i in range(n)
    ]
    return sim, medium, radios


def _object_gather(radios, center: Position, rng: float, cell: float, now: float):
    """The grid gather rule as a plain scan: every radio binned within
    ``ceil(rng / cell)`` cells of ``center``'s cell, in registration
    order — the exact candidate list, not just its distance filter."""
    reach = max(1, math.ceil(rng / cell))
    qcol, qrow = math.floor(center.x / cell), math.floor(center.y / cell)
    out = []
    for radio in radios:
        pos = radio.mobility.position_at(now)
        col, row = math.floor(pos.x / cell), math.floor(pos.y / cell)
        if abs(col - qcol) <= reach and abs(row - qrow) <= reach:
            out.append(radio)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_candidates_registration_order_matches_object_index(seed):
    sim, medium, radios = _static_population(seed)
    aindex = medium._aindex
    rng = random.Random(seed + 100)
    for _ in range(20):
        center = Position(rng.uniform(-100, 1600), rng.uniform(-100, 400))
        got = aindex.candidates_within(center, 550.0, sim.now)
        want = _object_gather(radios, center, 550.0, 550.0, sim.now)
        assert got == want  # same radios, same registration order


@pytest.mark.parametrize("seed", [4, 5])
def test_classify_fanout_bitwise_matches_scalar_recompute(seed):
    sim, medium, radios = _static_population(seed)
    aindex = medium._aindex
    r2 = medium._radio_range2
    i2 = medium._interference_range2
    for sender in radios[:8]:
        fan = aindex.classify_fanout(sender.node_id, sim.now, medium.interference_range, r2, i2)
        spos = sender.mobility.position_at(sim.now)
        assert struct.pack("<dd", fan.sx, fan.sy) == struct.pack("<dd", spos.x, spos.y)
        expected = []
        for radio in radios:  # brute scalar reference, registration order
            if radio is sender:
                continue
            rpos = radio.mobility.position_at(sim.now)
            if rpos.distance2_to(spos) <= i2:
                expected.append(radio)
        assert [aindex.radio_at(row) for row in fan.rows] == expected
        for k, row in enumerate(fan.rows):
            rpos = aindex.radio_at(row).mobility.position_at(sim.now)
            d2 = rpos.distance2_to(spos)
            assert fan.deliverable[k] == (d2 <= r2)
            dist = math.hypot(fan.dx[k], fan.dy[k])
            assert struct.pack("<d", dist) == struct.pack("<d", rpos.distance_to(spos))


def test_teleport_repositions_and_rebins():
    sim, medium, radios = _static_population(seed=7, n=4)
    aindex = medium._aindex
    before = aindex.candidates_within(Position(5000.0, 5000.0), 550.0, sim.now)
    assert radios[2] not in before
    radios[2].mobility.move_to(Position(5000.0, 5000.0))
    after = aindex.candidates_within(Position(5000.0, 5000.0), 550.0, sim.now)
    assert after == [radios[2]]
    x, y = aindex.positions_at(sim.now)
    assert (float(x[2]), float(y[2])) == (5000.0, 5000.0)


def test_gather_cache_hits_and_stats_keys():
    sim, medium, radios = _static_population(seed=9, n=12)
    aindex = medium._aindex
    center = Position(750.0, 150.0)
    first = aindex.candidates_within(center, 550.0, sim.now)
    assert aindex.candidates_within(center, 550.0, sim.now) is first  # cache-owned
    stats = medium.index_stats()
    assert stats is not None
    assert set(stats) == {"radios", "cells", "rebins", "refreshes", "cache_hits"}
    assert stats["radios"] == 12 and stats["cache_hits"] >= 1


def test_mobile_rows_track_legs_without_teleports():
    sim = Simulator()
    medium = RadioMedium(sim)
    rng = random.Random(11)
    region = Region(0.0, 0.0, 1500.0, 300.0)
    radios = [
        PhyRadio(
            sim,
            i,
            medium,
            RandomWaypointMobility(sim, region, random.Random(rng.random()),
                                   pause_time=0.0, min_speed=5.0),
        )
        for i in range(10)
    ]
    sim.run(until=30.0)  # RWP legs re-roll forever; bound the run
    aindex = medium._aindex
    x, y = aindex.positions_at(sim.now)
    for i, radio in enumerate(radios):
        ref = radio.mobility.position_at(sim.now)
        assert struct.pack("<dd", float(x[i]), float(y[i])) == struct.pack(
            "<dd", ref.x, ref.y
        )


def test_invalid_medium_index_rejected():
    """A non-bool ``reference`` fails when the config is built (so
    campaign expansion catches it), naming the knob the user set."""
    for bad in ("brute", "false", 0, None):
        with pytest.raises(ValueError, match="reference"):
            ScenarioConfig(reference=bad)


# ------------------------------------------------- the checked medium fires
def _broadcast(medium, sender):
    frame = MacFrame(FrameKind.DATA, MacAddress(sender.node_id), BROADCAST)
    medium.transmit(sender, frame, 1e-4)
    medium.sim.run()


def _corrupt_fanout(monkeypatch, corrupt):
    real = ArraySpatialIndex.classify_fanout

    def classify(self, *args):
        fan = real(self, *args)
        rows, dx, dy, deliv = list(fan.rows), list(fan.dx), list(fan.dy), list(fan.deliverable)
        corrupt(rows, dx, dy, deliv)
        return FanOut(fan.sx, fan.sy, rows, dx, dy, deliv)

    monkeypatch.setattr(ArraySpatialIndex, "classify_fanout", classify)


def test_cross_check_detects_a_dropped_receiver(monkeypatch):
    _sim, medium, radios = _static_population(seed=12, n=12, medium_class=CheckedMedium)

    def drop_last(rows, dx, dy, deliv):
        for column in (rows, dx, dy, deliv):
            del column[-1]

    _corrupt_fanout(monkeypatch, drop_last)
    with pytest.raises(AssertionError, match="diverged from the brute scan"):
        _broadcast(medium, radios[0])


def test_cross_check_detects_a_one_ulp_distance(monkeypatch):
    _sim, medium, radios = _static_population(seed=12, n=12, medium_class=CheckedMedium)

    def nudge_first(rows, dx, dy, deliv):
        dx[0] = math.nextafter(dx[0], math.inf)

    _corrupt_fanout(monkeypatch, nudge_first)
    with pytest.raises(AssertionError, match="diverged from the brute scan"):
        _broadcast(medium, radios[0])


def test_cross_check_detects_a_corrupted_memo_hit():
    _sim, medium, radios = _static_population(seed=12, n=12, medium_class=CheckedMedium)
    sender = radios[0]
    _broadcast(medium, sender)  # classifies and stores the memo entry
    _broadcast(medium, sender)  # a clean hit passes
    entry = medium._fanout_memo[sender.node_id]
    dists = entry[4]
    assert dists, "the sender must reach someone"
    dists[0] = math.nextafter(dists[0], math.inf)
    with pytest.raises(AssertionError, match="diverged from the brute scan"):
        _broadcast(medium, sender)


# ------------------------------------------------------- scenario level
def _config(seed: int, **overrides) -> ScenarioConfig:
    base = dict(
        protocol="agfw",
        num_nodes=16,
        sim_time=6.0,
        traffic_start=(0.5, 1.5),
        num_flows=5,
        num_senders=4,
        seed=seed,
        static=False,
        pause_time=0.0,
        min_speed=5.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spatial_modes_trace_identically(seed, checked_medium):
    assert assert_reference_matches(_config(seed)).sent > 0  # traffic actually flowed


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_spatial_modes_trace_identically_under_faults(seed, checked_medium):
    """Loss + churn exercise down-radio gaps, teleporting recoveries and
    memo invalidation; the array index must still trace identically."""
    plan = FaultPlan.churn(
        range(16), sim_time=6.0, seed=seed, rate=1.0, mean_downtime=1.0
    )
    assert_reference_matches(
        _config(seed, loss_model="bernoulli", loss_rate=0.15, fault_plan=plan)
    )


def test_jobs_pool_identical_across_spatial_modes(tmp_path):
    """--jobs workers pickle configs into subprocesses; the array index
    must survive the trip and store the exact same campaign records as
    the reference.  Only the digest differs: ``reference`` is part of
    the config it hashes."""
    records = {}
    for reference in (True, False):
        base = {"protocol": "agfw", "sim_time": 4.0, "reference": reference}
        spec = spec_from_mapping(
            {"name": "spatial-jobs", "seed": 3, "base": base, "axes": {"num_nodes": [10, 14]}}
        )
        store = ResultStore(tmp_path / str(reference))
        run_campaign(spec, store, jobs=2)
        records[reference] = [
            {k: v for k, v in store.get(config_digest(p.config)).items() if k != "digest"}
            for p in spec.points()
        ]
    assert records[True] == records[False]
    assert all(r["metrics"]["sent"] > 0 for r in records[False])
