"""FaultPlan / FaultInjector: schedules, determinism, and down semantics."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.scenario import ScenarioConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.geo.vec import Position
from repro.metrics.faults import FaultMetrics
from tests.conftest import build_static_net, line_positions

LINE3 = line_positions(3)


# ----------------------------------------------------------------- plan data
def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, 0, "crash")
    with pytest.raises(ValueError):
        FaultEvent(1.0, 0, "teleport")
    # ``nan < 0`` is False: a bare sign check let a NaN time through.
    for time in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time must be >= 0 and finite"):
            FaultEvent(time, 0, "crash")
    # A node id is an int naming a node: not a string, a bool or negative.
    for node_id in ("3", True, -2, 1.0):
        with pytest.raises(ValueError, match=r"node_id must be >= 0 \(an int\)"):
            FaultEvent(time=1.0, node_id=node_id, action="crash")
    # A plan holds FaultEvents only, in a tuple; ScenarioConfig used to
    # fail on a foreign member with an AttributeError from its node rule.
    with pytest.raises(ValueError, match="events must be a FaultEvent"):
        FaultPlan(events=("x",))
    with pytest.raises(ValueError, match="events must be a FaultEvent"):
        ScenarioConfig(num_nodes=4, fault_plan=FaultPlan(events=("x",)))
    with pytest.raises(ValueError, match="events must be a tuple"):
        FaultPlan(events=[FaultEvent(1.0, 0, "crash")])
    # churn() checks its rates the same way: NaN passes a bare sign check.
    for kwargs in ({"rate": float("nan")}, {"rate": float("inf")}, {"mean_downtime": float("nan")}):
        with pytest.raises(ValueError, match="must be"):
            FaultPlan.churn(range(3), sim_time=10.0, seed=1, **kwargs)


def test_plan_builders_chain_and_are_immutable():
    base = FaultPlan()
    plan = base.crash(2, at=1.0).recover(2, at=3.0).pause(5, at=2.0, duration=0.5)
    assert len(base) == 0 and not base
    assert len(plan) == 4 and plan
    assert plan.node_ids() == (2, 5)
    with pytest.raises(ValueError):
        plan.pause(1, at=0.0, duration=-1.0)


def test_sorted_events_canonical_order():
    plan = FaultPlan().recover(1, at=2.0).crash(0, at=2.0).crash(1, at=2.0)
    ordered = plan.sorted_events()
    # Same instant: node id first, then crash before recover.
    assert [(e.node_id, e.action) for e in ordered] == [
        (0, "crash"),
        (1, "crash"),
        (1, "recover"),
    ]


def test_plan_pickles_roundtrip():
    plan = FaultPlan.churn(range(5), sim_time=10.0, seed=3, rate=2.0, mean_downtime=1.0)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan


# --------------------------------------------------------------------- churn
def test_churn_is_deterministic_per_seed():
    kwargs = dict(sim_time=20.0, rate=2.0, mean_downtime=1.5)
    assert FaultPlan.churn(range(8), seed=5, **kwargs) == FaultPlan.churn(
        range(8), seed=5, **kwargs
    )
    assert FaultPlan.churn(range(8), seed=5, **kwargs) != FaultPlan.churn(
        range(8), seed=6, **kwargs
    )


def test_churn_per_node_streams_compose():
    """A node's schedule is a pure function of (seed, node); membership of
    the churn set never perturbs it."""
    kwargs = dict(sim_time=20.0, seed=5, rate=2.0, mean_downtime=1.5)
    solo = FaultPlan.churn([3], **kwargs)
    grouped = FaultPlan.churn([1, 2, 3], **kwargs)
    assert [e for e in grouped.events if e.node_id == 3] == list(solo.events)


def test_churn_respects_horizon_and_rate_zero():
    plan = FaultPlan.churn(range(10), sim_time=30.0, seed=1, rate=1.0, mean_downtime=2.0)
    assert all(e.time < 30.0 for e in plan.events)
    assert not FaultPlan.churn(range(10), sim_time=30.0, seed=1, rate=0.0)
    with pytest.raises(ValueError):
        FaultPlan.churn(range(3), sim_time=0.0, seed=1)
    with pytest.raises(ValueError):
        FaultPlan.churn(range(3), sim_time=1.0, seed=1, mean_downtime=0.0)


# ------------------------------------------------------------------ injector
def test_injector_rejects_unknown_node_ids():
    net = build_static_net(LINE3, protocol="gpsr")
    plan = FaultPlan().crash(99, at=1.0)
    with pytest.raises(ValueError):
        FaultInjector(net.sim, net.nodes, plan, FaultMetrics())


def test_crash_takes_node_genuinely_down():
    plan = FaultPlan().crash(1, at=2.0)
    net = build_static_net(LINE3, protocol="gpsr", fault_plan=plan)
    net.sim.run(until=8.0)
    node = net.nodes[1]
    assert node.down and node.phy.down and node.mac.down
    assert net.fault_injector.is_down(1) and net.fault_injector.any_down
    # Beacons stopped: the crashed node ages out of both neighbors' tables.
    assert "node-1" not in net.nodes[0].router.table
    assert "node-1" not in net.nodes[2].router.table
    m = net.fault_metrics
    assert m.crashes == 1 and m.recoveries == 0
    net.fault_injector.finalize(net.sim.now)
    assert m.downtime_s == pytest.approx(net.sim.now - 2.0)


def test_recover_reboots_node_and_it_rejoins():
    plan = FaultPlan().pause(1, at=2.0, duration=3.0)
    net = build_static_net(LINE3, protocol="gpsr", fault_plan=plan)
    net.sim.run(until=12.0)
    node = net.nodes[1]
    assert not node.down
    m = net.fault_metrics
    assert m.crashes == 1 and m.recoveries == 1
    assert m.downtime_s == pytest.approx(3.0)
    # Rebooted node beacons again and is re-learned by its neighbors.
    assert "node-1" in net.nodes[0].router.table
    assert "node-1" in net.nodes[2].router.table


def test_injector_idempotent_under_duplicate_events():
    plan = FaultPlan().crash(0, at=1.0).crash(0, at=1.5).recover(0, at=2.0).recover(0, at=2.5)
    net = build_static_net(LINE3, protocol="gpsr", fault_plan=plan)
    net.sim.run(until=4.0)
    m = net.fault_metrics
    assert m.crashes == 1 and m.recoveries == 1
    assert m.downtime_s == pytest.approx(1.0)


def test_down_node_drops_tx_silently():
    plan = FaultPlan().crash(0, at=2.0)
    net = build_static_net(LINE3, protocol="gpsr", fault_plan=plan)
    net.sim.run(until=3.0)
    before = net.nodes[0].mac.stats.down_drops
    net.nodes[0].router.send_data("node-2", 64)
    net.sim.run(until=6.0)
    assert net.deliveries() == []  # nothing left the dead radio
    assert net.nodes[0].mac.stats.down_drops >= before


def test_fault_traces_emitted():
    plan = FaultPlan().pause(2, at=1.0, duration=1.0)
    net = build_static_net(LINE3, protocol="gpsr", fault_plan=plan)
    net.sim.run(until=4.0)
    crashes = list(net.tracer.filter("fault.crash"))
    recovers = list(net.tracer.filter("fault.recover"))
    assert [r.node for r in crashes] == [2]
    assert [r.node for r in recovers] == [2]
    assert crashes[0].time == pytest.approx(1.0)


def test_deliveries_during_downtime_counted():
    # Nodes 0-1 talk while an unrelated node (2) is down.
    positions = [Position(0, 0), Position(150, 0), Position(5000, 5000)]
    plan = FaultPlan().crash(2, at=1.0)
    net = build_static_net(positions, protocol="gpsr", fault_plan=plan)
    net.sim.run(until=3.0)
    net.nodes[0].router.send_data("node-1", 64)
    net.sim.run(until=6.0)
    assert [d[0] for d in net.deliveries()] == [1]
    assert net.fault_metrics.deliveries_during_downtime == 1
