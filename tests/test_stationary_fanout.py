"""Stationary-window fan-out memo: the index's stamp and the medium's use of it.

``ArraySpatialIndex.stationary_stamp`` returns one stamp for as long as
no radio can have moved — every leg row paused before its ``depart``,
fixed rows untouched — and ``-1`` otherwise.  The medium replays a
sender's memoized fan-out while the stamp holds.  The unit cases pin the
window's edges; the scenario cases prove the memo is outcome-invisible
across a pause that ends mid-run, and that it is used exactly while the
arena is paused.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.geo.region import Region
from repro.geo.vec import Position
from repro.net.addresses import BROADCAST, MacAddress
from repro.net.mac.frames import FrameKind, MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import RandomWaypointMobility, StaticMobility, WaypointLeg
from repro.net.phy import PhyRadio
from repro.sim.engine import Simulator
from tests.conftest import CheckedMedium, assert_reference_matches

ARENA = Region(0.0, 0.0, 1500.0, 300.0)


class _FrozenLeg:
    """One fixed waypoint leg that never rolls: full control of ``depart``."""

    max_speed = 20.0

    def __init__(self, leg: WaypointLeg) -> None:
        self.current_leg = leg

    def position_at(self, time: float) -> Position:
        return self.current_leg.position_at(time)

    def subscribe(self, callback) -> None:
        """Continuous trajectory: nothing to notify."""


class _Opaque:
    """Neither a leg nor a speed bound: the index must re-read it every query."""

    def __init__(self, position: Position) -> None:
        self._position = position

    def position_at(self, time: float) -> Position:
        return self._position

    def subscribe(self, callback) -> None:
        """Never notifies."""


def _medium(mobilities, sim=None):
    sim = sim if sim is not None else Simulator()
    medium = RadioMedium(sim)
    radios = [PhyRadio(sim, i, medium, mob) for i, mob in enumerate(mobilities)]
    return sim, medium, radios


def _static(n: int = 3):
    return [StaticMobility(Position(100.0 * i, 0.0)) for i in range(n)]


# ------------------------------------------------------------- unit cases
def test_fixed_rows_hold_one_stamp_forever():
    _sim, medium, _radios = _medium(_static())
    index = medium._aindex
    stamp = index.stationary_stamp(0.0)
    assert stamp >= 0
    assert index.stationary_stamp(1.0) == stamp
    assert index.stationary_stamp(1e9) == stamp


def test_paused_legs_hold_until_the_earliest_departure():
    sim = Simulator()
    rng = random.Random(3)
    mobs = [
        RandomWaypointMobility(sim, ARENA, random.Random(rng.random()), pause_time=pause)
        for pause in (4.0, 2.5, 6.0)
    ]
    _sim, medium, _radios = _medium(mobs + _static(1), sim)
    index = medium._aindex
    stamp = index.stationary_stamp(0.0)
    assert stamp >= 0
    assert index.stationary_stamp(1.0) == stamp
    assert index.stationary_stamp(2.5) == stamp  # depart itself is still paused
    assert index.stationary_stamp(math.nextafter(2.5, math.inf)) == -1
    assert index.stationary_stamp(3.0) == -1


def test_leg_departing_exactly_now_is_still_at_its_origin():
    leg = WaypointLeg(Position(10.0, 10.0), Position(400.0, 10.0), 10.0, depart_time=5.0)
    _sim, medium, _radios = _medium([_FrozenLeg(leg)] + _static(2))
    index = medium._aindex
    # A window can open at the departure instant itself ...
    stamp = index.stationary_stamp(5.0)
    assert stamp >= 0
    x, y = index.positions_at(5.0)
    assert (float(x[0]), float(y[0])) == (10.0, 10.0)
    # ... and closes right after it.
    assert index.stationary_stamp(math.nextafter(5.0, math.inf)) == -1


def test_opaque_rows_are_never_stationary():
    _sim, medium, _radios = _medium(_static(2) + [_Opaque(Position(50.0, 50.0))])
    index = medium._aindex
    assert index.stationary_stamp(0.0) == -1
    assert index.stationary_stamp(10.0) == -1


@pytest.mark.parametrize("event", ["teleport", "invalidate_all", "add"])
def test_discontinuities_end_the_window(event):
    sim, medium, radios = _medium(_static())
    index = medium._aindex
    before = index.stationary_stamp(0.0)
    if event == "teleport":
        radios[2].mobility.move_to(Position(150.0, 0.0))
    elif event == "invalidate_all":
        index.invalidate_all()
    else:
        PhyRadio(sim, 3, medium, StaticMobility(Position(50.0, 50.0)))
    after = index.stationary_stamp(0.0)
    assert after >= 0 and after != before


def test_mobile_arena_pays_no_sweep_until_the_latest_arrival():
    """Once some leg has departed, the retry guard answers -1 without
    re-syncing rows until the moving legs' latest arrival."""
    legs = [
        WaypointLeg(Position(0.0, 0.0), Position(100.0, 0.0), 10.0, depart_time=0.0),
        WaypointLeg(Position(0.0, 50.0), Position(300.0, 50.0), 10.0, depart_time=0.0),
    ]
    _sim, medium, _radios = _medium([_FrozenLeg(leg) for leg in legs])
    index = medium._aindex
    syncs = []
    real_sync = index._sync_rows
    index._sync_rows = lambda now: (syncs.append(now), real_sync(now))
    assert index.stationary_stamp(1.0) == -1
    assert syncs == [1.0]
    for t in (2.0, 10.0, 29.9):  # latest arrival: 300 m at 10 m/s
        assert index.stationary_stamp(t) == -1
    assert syncs == [1.0]


def test_window_reopens_after_every_leg_arrives_and_pauses():
    sim = Simulator()
    mob = RandomWaypointMobility(sim, ARENA, random.Random(5), pause_time=1.0)
    _sim, medium, _radios = _medium([mob] + _static(1), sim)
    index = medium._aindex
    first = index.stationary_stamp(0.5)
    assert first >= 0
    leg = mob.current_leg
    midway = (leg.depart_time + leg.arrive_time) / 2
    assert index.stationary_stamp(midway) == -1
    sim.run(until=leg.arrive_time + 0.5)  # the roll starts a 1 s pause
    second = index.stationary_stamp(sim.now)
    assert second >= 0 and second != first


@pytest.mark.parametrize(
    "medium_class", [RadioMedium, CheckedMedium], ids=["grid", "cross"]
)
def test_teleport_and_liveness_drop_the_medium_memo(medium_class):
    sim = Simulator()
    medium = medium_class(sim)
    radios = [
        PhyRadio(sim, i, medium, StaticMobility(Position(200.0 * i, 0.0))) for i in range(4)
    ]
    frame = MacFrame(FrameKind.DATA, MacAddress(1), BROADCAST)
    first = medium.transmit(radios[0], frame, 1e-4)
    sim.run()
    assert first.deliverable_to == {1}
    radios[3].mobility.move_to(Position(100.0, 0.0))
    second = medium.transmit(radios[0], frame, 1e-4)
    sim.run()
    assert second.deliverable_to == {1, 3}
    memo = medium._fanout_memo[0]
    medium.invalidate_radio(radios[1])
    assert medium._fanout_memo == {}
    third = medium.transmit(radios[0], frame, 1e-4)
    sim.run()
    assert third.deliverable_to == {1, 3}
    assert medium._fanout_memo[0][0] != memo[0]  # stored under a fresh stamp


# --------------------------------------------------------- scenario cases
#: The pause ends at t=2 s, inside the 5 s horizon, with traffic on air
#: on both sides of it.
PAUSE_ENDS = 2.0


def _config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        protocol="agfw",
        num_nodes=16,
        sim_time=5.0,
        traffic_start=(0.3, 1.0),
        num_flows=5,
        num_senders=4,
        seed=seed,
        pause_time=PAUSE_ENDS,
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pause_ending_mid_run_traces_identically(seed, checked_medium):
    """The checked medium re-derives every memo hit, too."""
    assert assert_reference_matches(_config(seed)).sent > 0  # traffic actually flowed


def test_memo_hits_before_the_first_departure_and_none_after():
    scenario = Scenario(_config(1))
    sim, medium = scenario.sim, scenario.medium
    index = medium._aindex
    transmits, fanouts = [], []
    real_transmit, real_classify = medium.transmit, index.classify_fanout

    def transmit(sender, frame, duration):
        transmits.append(sim.now)
        return real_transmit(sender, frame, duration)

    def classify(*args):
        fanouts.append(sim.now)
        return real_classify(*args)

    medium.transmit = transmit
    index.classify_fanout = classify
    first_departure = min(node.phy.mobility.current_leg.depart_time for node in scenario.nodes)
    assert first_departure == PAUSE_ENDS
    scenario.run()

    def split(times):
        return (
            sum(1 for t in times if t <= PAUSE_ENDS),
            sum(1 for t in times if t > PAUSE_ENDS),
        )

    tx_before, tx_after = split(transmits)
    fan_before, fan_after = split(fanouts)
    assert tx_before > 0 and tx_after > 0
    # Paused: at most one classification per sender, the rest are hits.
    assert fan_before <= len(scenario.nodes) < tx_before
    # Moving: every transmission classifies its fan-out afresh.
    assert fan_after == tx_after
