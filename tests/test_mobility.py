"""Tests for mobility models."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.region import Region
from repro.geo.vec import Position
from repro.net.mobility import RandomWaypointMobility, StaticMobility, WaypointLeg
from repro.sim.engine import Simulator


def test_static_never_moves():
    mobility = StaticMobility(Position(5, 5))
    assert mobility.position_at(0) == Position(5, 5)
    assert mobility.position_at(1000) == Position(5, 5)
    assert mobility.velocity_at(50) == (0.0, 0.0)


def test_static_move_to():
    mobility = StaticMobility(Position(0, 0))
    mobility.move_to(Position(9, 9))
    assert mobility.position_at(0) == Position(9, 9)


# ------------------------------------------------------------- waypoint leg
def test_leg_pauses_then_travels():
    leg = WaypointLeg(Position(0, 0), Position(100, 0), speed=10.0, depart_time=60.0)
    assert leg.position_at(0) == Position(0, 0)  # pausing
    assert leg.position_at(60) == Position(0, 0)
    assert leg.position_at(65) == Position(50, 0)  # halfway
    assert leg.position_at(70) == Position(100, 0)
    assert leg.position_at(1000) == Position(100, 0)
    assert leg.arrive_time == 70.0


def test_leg_velocity_only_while_moving():
    leg = WaypointLeg(Position(0, 0), Position(100, 0), speed=10.0, depart_time=60.0)
    assert leg.velocity_at(30) == (0.0, 0.0)
    vx, vy = leg.velocity_at(65)
    assert vx == pytest.approx(10.0)
    assert vy == pytest.approx(0.0)
    assert leg.velocity_at(75) == (0.0, 0.0)


def test_leg_zero_distance():
    leg = WaypointLeg(Position(5, 5), Position(5, 5), speed=10.0, depart_time=0.0)
    assert leg.arrive_time == 0.0
    assert leg.velocity_at(0.0) == (0.0, 0.0)


# ----------------------------------------------------------- random waypoint
def _make_rwp(seed=0, **kwargs):
    sim = Simulator()
    region = Region.of_size(1500, 300)
    mobility = RandomWaypointMobility(
        sim, region, random.Random(seed), pause_time=kwargs.pop("pause_time", 5.0), **kwargs
    )
    return sim, region, mobility


def test_rwp_stays_in_region():
    sim, region, mobility = _make_rwp(seed=3)
    sim.run(until=600)
    for t in range(0, 600, 7):
        assert region.contains(mobility.position_at(min(float(t), sim.now)))


def test_rwp_actually_moves():
    sim, _region, mobility = _make_rwp(seed=1)
    start = mobility.position_at(0)
    sim.run(until=300)
    # With a 5 s pause and >=1 m/s it must have moved by now.
    assert mobility.position_at(sim.now).distance_to(start) > 1.0


def test_rwp_speed_bounds():
    sim, _region, mobility = _make_rwp(seed=2, min_speed=1.0, max_speed=20.0)
    sim.run(until=500)
    # Sample velocities; magnitude must never exceed max_speed.
    for t in range(0, 500, 3):
        vx, vy = mobility.velocity_at(float(t))
        assert (vx * vx + vy * vy) ** 0.5 <= 20.0 + 1e-9


def test_rwp_pause_respected():
    sim, _region, mobility = _make_rwp(seed=4, pause_time=50.0)
    # During the initial pause, the node sits still.
    p0 = mobility.position_at(0.0)
    assert mobility.position_at(25.0) == p0
    assert mobility.velocity_at(25.0) == (0.0, 0.0)


def test_rwp_deterministic_from_seed():
    sim1, _r1, m1 = _make_rwp(seed=9)
    sim2, _r2, m2 = _make_rwp(seed=9)
    sim1.run(until=200)
    sim2.run(until=200)
    assert m1.position_at(150.0) == m2.position_at(150.0)


def test_rwp_rejects_bad_speeds():
    sim = Simulator()
    region = Region.of_size(100, 100)
    with pytest.raises(ValueError):
        RandomWaypointMobility(sim, region, random.Random(0), min_speed=0.0)
    with pytest.raises(ValueError):
        RandomWaypointMobility(sim, region, random.Random(0), min_speed=5.0, max_speed=1.0)
    with pytest.raises(ValueError):
        RandomWaypointMobility(sim, region, random.Random(0), pause_time=-1.0)
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(min_speed=nan),
        dict(max_speed=nan),
        dict(max_speed=inf),
        dict(min_speed=inf, max_speed=inf),
        dict(pause_time=nan),
        dict(pause_time=inf),
    ):
        with pytest.raises(ValueError):
            RandomWaypointMobility(sim, region, random.Random(0), **bad)


def test_rwp_explicit_start_position():
    sim = Simulator()
    region = Region.of_size(100, 100)
    mobility = RandomWaypointMobility(
        sim, region, random.Random(0), start=Position(50, 50), pause_time=10.0
    )
    assert mobility.position_at(0.0) == Position(50, 50)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_rwp_in_bounds_property(seed):
    sim, region, mobility = _make_rwp(seed=seed, pause_time=1.0)
    sim.run(until=120)
    for t in (0.0, 30.0, 60.0, 90.0, 119.0):
        assert region.contains(mobility.position_at(t))
