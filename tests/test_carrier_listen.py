"""Carrier-listener contract between ``DcfMac`` and ``PhyRadio``.

The MAC keeps ``phy.carrier_listen`` at the level its state needs —
``LISTEN_ALL`` while a DIFS or backoff-slot timer is armed (busy freezes
them), ``LISTEN_IDLE`` otherwise in ``CONTEND`` (idle resumes), and
``LISTEN_NONE`` in every other state — and the PHY skips the callbacks
the level leaves out.  The unit cases follow the level through a
unicast exchange and a NAV deferral; the scenario cases prove skipping
is outcome-invisible by comparing against a run whose PHYs deliver every
callback, as the MAC-agnostic PHY used to.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults import FaultPlan
from repro.geo.vec import Position
from repro.net.addresses import BROADCAST, mac_for_node
from repro.net.mac.dcf import MacState
from repro.net.mac.frames import FrameKind, MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.phy import LISTEN_ALL, LISTEN_IDLE, LISTEN_NONE, PhyRadio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


@dataclass
class _Data(Packet):
    KIND = "data"

    def header_bytes(self) -> int:
        return 20


def _required(mac) -> int:
    """The level the contract demands for ``mac``'s current state."""
    if mac._state is not MacState.CONTEND:
        return LISTEN_NONE
    if mac._difs_timer is not None or mac._slot_timer is not None:
        return LISTEN_ALL
    return LISTEN_IDLE


def _watch(sim: Simulator, macs) -> dict:
    """After every event, assert each MAC's level matches the contract and
    log each distinct (state, timers, level) the MAC passes through."""
    seen: dict = {mac.node_id: [] for mac in macs}
    schedule_at = sim.schedule_at

    def check() -> None:
        for mac in macs:
            level = mac.phy.carrier_listen
            assert level == _required(mac), (mac.node_id, mac._state, level)
            step = (
                mac._state.value,
                "nav" if mac._nav_timer is not None and not mac._nav_timer.cancelled else "",
                "difs" if mac._difs_timer is not None else "",
                "slot" if mac._slot_timer is not None else "",
                level,
            )
            log = seen[mac.node_id]
            if not log or log[-1] != step:
                log.append(step)

    def watched(time, callback, **kwargs):
        def run() -> None:
            callback()
            check()

        return schedule_at(time, run, **kwargs)

    sim.schedule_at = watched  # type: ignore[method-assign]
    return seen


def _net(positions):
    sim = Simulator()
    tracer = Tracer()
    medium = RadioMedium(sim, tracer)
    rngs = RngRegistry(17)
    nodes = [
        Node(sim, i, medium, StaticMobility(p), rngs, tracer) for i, p in enumerate(positions)
    ]
    return sim, nodes


def test_level_follows_a_unicast_exchange():
    sim, (a, b) = _net([Position(0, 0), Position(100, 0)])
    seen = _watch(sim, [a.mac, b.mac])
    assert a.phy.carrier_listen == LISTEN_NONE
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64, uid=a.next_packet_uid()), b.address))
    sim.run(until=1.0)
    states = [(state, level) for state, _nav, _difs, _slot, level in seen[a.node_id]]
    assert states == [
        ("contend", LISTEN_ALL),  # idle medium: DIFS armed straight away
        ("wait_cts", LISTEN_NONE),
        ("wait_ack", LISTEN_NONE),
        ("idle", LISTEN_NONE),
    ]
    # The responder never contends: its CTS and ACK are SIFS-spaced.
    assert {level for *_, level in seen[b.node_id]} == {LISTEN_NONE}


def test_level_follows_nav_difs_and_slot_arming():
    """A bystander that overhears RTS/CTS while contending defers on NAV
    (idle-only), then re-arms DIFS and backs off slot by slot (all)."""
    sim, (a, b, c) = _net([Position(0, 0), Position(100, 0), Position(200, 0)])
    seen = _watch(sim, [a.mac, b.mac, c.mac])
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=512, uid=a.next_packet_uid()), b.address))
    sim.schedule(0.1003, lambda: c.mac.send(_Data(payload_bytes=64, uid=c.next_packet_uid()), BROADCAST))
    sim.run(until=1.0)
    steps = seen[c.node_id]
    assert ("contend", "nav", "", "", LISTEN_IDLE) in steps
    assert ("contend", "", "difs", "", LISTEN_ALL) in steps
    assert ("contend", "", "", "slot", LISTEN_ALL) in steps
    assert steps[-1] == ("idle", "", "", "", LISTEN_NONE)


def test_level_drops_when_the_node_goes_down():
    sim, (a, b) = _net([Position(0, 0), Position(100, 0)])
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64, uid=a.next_packet_uid()), b.address))
    sim.run(until=0.1)
    assert a.phy.carrier_listen == LISTEN_ALL
    a.fail()
    assert a.phy.carrier_listen == LISTEN_NONE


class _Listener:
    """A MAC double that records the carrier callbacks it is given."""

    def __init__(self) -> None:
        self.calls: list = []

    def on_channel_busy(self) -> None:
        self.calls.append("busy")

    def on_channel_idle(self) -> None:
        self.calls.append("idle")


@pytest.mark.parametrize(
    "level, expected",
    [(LISTEN_NONE, []), (LISTEN_IDLE, ["idle"]), (LISTEN_ALL, ["busy", "idle"])],
)
def test_phy_delivers_only_the_callbacks_the_level_asks_for(level, expected):
    sim = Simulator()
    medium = RadioMedium(sim)
    sender = PhyRadio(sim, 0, medium, StaticMobility(Position(0, 0)))
    receiver = PhyRadio(sim, 1, medium, StaticMobility(Position(100, 0)))
    listener = _Listener()
    receiver.mac = listener  # type: ignore[assignment]
    receiver.carrier_listen = level
    sender.transmit(MacFrame(FrameKind.DATA, mac_for_node(0), BROADCAST), 0.001)
    sim.run()
    assert listener.calls == expected


# --------------------------------------------------------- scenario cases
def _config(seed: int, faulted: bool) -> ScenarioConfig:
    extra: dict = {}
    if faulted:
        extra = dict(
            loss_model="bernoulli",
            loss_rate=0.15,
            fault_plan=FaultPlan.churn(
                range(16), sim_time=5.0, seed=seed, rate=1.0, mean_downtime=1.0
            ),
        )
    return ScenarioConfig(
        protocol="gpsr",  # unicast data: RTS/CTS/DATA/ACK and NAV deferrals
        num_nodes=16,
        sim_time=5.0,
        traffic_start=(0.5, 1.5),
        num_flows=5,
        num_senders=4,
        seed=seed,
        pause_time=0.0,
        min_speed=5.0,
        keep_trace=True,
        **extra,
    )


def _fingerprint(config: ScenarioConfig) -> list:
    scenario = Scenario(config)
    result = scenario.run()
    records = [
        (repr(r.time), r.category, r.node, r.data.get("frame_kind"))
        for r in scenario.tracer.records
    ]
    assert any(record[3] == "rts" for record in records)
    outcome = (result.sent, result.delivered, result.collisions, scenario.sim.processed_events)
    return [outcome] + records


def _reference(seed: int, faulted: bool) -> list:
    """The run with PHYs that ignore the level and make every callback."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            PhyRadio,
            "carrier_listen",
            property(lambda self: LISTEN_ALL, lambda self, level: None),
            raising=False,
        )
        return _fingerprint(_config(seed, faulted))


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "loss+churn"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gpsr_traces_match_every_callback_delivered(seed, faulted):
    reference = _reference(seed, faulted)
    assert _fingerprint(_config(seed, faulted)) == reference
    assert reference[0][0] > 0
