"""Index-vs-reference equivalence and medium substrate regressions.

The spatial index is only admissible because it is *outcome-invisible*:
every scenario must trace identically on the array index and on the
brute reference scan (``reference=True``).  Under the ``checked_medium``
fixture every single fan-out and neighbor query inside the run is also
checked against the brute scan, so one passing run is a
per-transmission proof for that workload.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.geo.vec import Position
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.phy import PhyRadio
from repro.sim.engine import Simulator
from repro.net.addresses import BROADCAST, MacAddress
from repro.net.mac.frames import FrameKind, MacFrame
from tests.conftest import assert_reference_matches


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("static", [True, False], ids=["static", "rwp"])
def test_grid_brute_cross_identical_outcomes(seed, static, checked_medium):
    config = ScenarioConfig(
        protocol="agfw",
        num_nodes=22,
        sim_time=12.0,
        seed=seed,
        num_flows=6,
        num_senders=5,
        static=static,
        # pause_time=0 keeps RWP nodes actually moving inside the short
        # horizon, exercising the lazy-rebucketing path for real.
        pause_time=0.0,
        min_speed=5.0,
    )
    assert assert_reference_matches(config).sent > 0  # traffic actually flowed


# ----------------------------------------------------------- tx uid scope
def test_tx_uids_restart_per_medium():
    """Regression: the tx uid counter must live on the medium, not the
    module — a second simulation in the same process restarts at 1."""

    def first_uid() -> int:
        sim = Simulator()
        medium = RadioMedium(sim)
        radios = [
            PhyRadio(sim, i, medium, StaticMobility(Position(float(i) * 100.0, 0.0)))
            for i in range(2)
        ]
        frame = MacFrame(FrameKind.DATA, MacAddress(1), BROADCAST)
        tx = medium.transmit(radios[0], frame, 1e-4)
        sim.run()
        return tx.uid

    assert first_uid() == 1
    assert first_uid() == 1  # the old module-global counter returned 2 here


def test_radios_property_is_live_registration_order_view():
    sim = Simulator()
    medium = RadioMedium(sim)
    radios = [
        PhyRadio(sim, i, medium, StaticMobility(Position(float(i), 0.0)))
        for i in range(3)
    ]
    assert list(medium.radios) == radios
    extra = PhyRadio(sim, 3, medium, StaticMobility(Position(3.0, 0.0)))
    assert list(medium.radios) == radios + [extra]  # live view, not a snapshot


def test_transmission_membership_fields_are_sets():
    sim = Simulator()
    medium = RadioMedium(sim)
    radios = [
        PhyRadio(sim, i, medium, StaticMobility(Position(float(i) * 100.0, 0.0)))
        for i in range(3)
    ]
    frame = MacFrame(FrameKind.DATA, MacAddress(1), BROADCAST)
    tx = medium.transmit(radios[0], frame, 1e-4)
    assert isinstance(tx.deliverable_to, set)
    assert tx.deliverable_to == {1, 2}
    assert not hasattr(tx, "corrupted_at")  # receivers track corruption
    sim.run()
    # Memo hits share the memo's frozenset instead of copying it per frame.
    hits = [medium.transmit(radios[0], frame, 1e-4) for _ in range(2)]
    assert isinstance(hits[0].deliverable_to, frozenset)
    assert hits[0].deliverable_to is hits[1].deliverable_to
    assert hits[0].deliverable_to == {1, 2}
    sim.run()


# -------------------------------------------------------- static fan-out memo
def _bare_medium():
    sim = Simulator()
    medium = RadioMedium(sim)
    radios = [
        PhyRadio(sim, i, medium, StaticMobility(Position(float(i) * 200.0, 0.0)))
        for i in range(4)
    ]
    return sim, medium, radios


def test_static_fanout_memo_reused_and_identical():
    sim, medium, radios = _bare_medium()
    frame = MacFrame(FrameKind.DATA, MacAddress(1), BROADCAST)
    first = medium.transmit(radios[0], frame, 1e-4)
    sim.run()
    second = medium.transmit(radios[0], frame, 1e-4)
    sim.run()
    assert second.deliverable_to == first.deliverable_to
    # The memo hit skips the index gather entirely: no new cache activity
    # beyond the first transmission's.
    stats = medium.index_stats()
    assert stats is not None and stats["radios"] == 4


def test_teleport_invalidates_static_fanout_memo():
    sim, medium, radios = _bare_medium()
    frame = MacFrame(FrameKind.DATA, MacAddress(1), BROADCAST)
    first = medium.transmit(radios[0], frame, 1e-4)
    sim.run()
    assert first.deliverable_to == {1}  # only the 200 m neighbour decodes
    # Teleport radio 3 from 600 m (out of range) to 100 m (in range).
    radios[3].mobility.move_to(Position(100.0, 0.0))
    second = medium.transmit(radios[0], frame, 1e-4)
    sim.run()
    assert second.deliverable_to == {1, 3}


def test_memo_disabled_while_any_radio_mobile_cross_checked(checked_medium):
    """With a mobile radio present the memo must stay off; run on a
    checked medium so every fan-out is verified against brute force."""
    cfg = ScenarioConfig(
        protocol="agfw",
        num_nodes=12,
        sim_time=6.0,
        seed=5,
        num_flows=4,
        num_senders=3,
        static=False,
        pause_time=0.0,
        min_speed=5.0,
    )
    result = run_scenario(cfg)
    assert result.sent > 0  # the checks raised nowhere: equivalence held
