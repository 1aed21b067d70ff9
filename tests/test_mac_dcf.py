"""Tests for the 802.11 DCF MAC model."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.geo.vec import Position
from repro.net.addresses import BROADCAST
from repro.net.mac.constants import DEFAULT_DOT11, Dot11Params
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


@dataclass
class _Data(Packet):
    KIND = "data"

    def header_bytes(self) -> int:
        return 20


def _net(positions, params=DEFAULT_DOT11):
    sim = Simulator()
    tracer = Tracer()
    medium = RadioMedium(sim, tracer)
    rngs = RngRegistry(17)
    nodes = [
        Node(sim, i, medium, StaticMobility(p), rngs, tracer, dot11=params)
        for i, p in enumerate(positions)
    ]
    return sim, tracer, nodes


# --------------------------------------------------------------- constants
def test_difs_definition():
    params = Dot11Params()
    assert params.difs == pytest.approx(params.sifs + 2 * params.slot_time)


def test_eifs_exceeds_difs():
    assert DEFAULT_DOT11.eifs > DEFAULT_DOT11.difs


def test_frame_durations_include_plcp():
    params = Dot11Params()
    assert params.control_duration(params.rts_bytes) == pytest.approx(
        192e-6 + 20 * 8 / 1e6
    )
    assert params.data_duration(100) == pytest.approx(192e-6 + (28 + 100) * 8 / 2e6)


def test_broadcast_basic_rate_switch():
    params = Dot11Params(broadcast_at_basic_rate=True)
    assert params.data_duration(100, broadcast=True) > params.data_duration(100)
    default = Dot11Params()
    assert default.data_duration(100, broadcast=True) == default.data_duration(100)


def test_nav_covers_remaining_exchange():
    params = Dot11Params()
    nav_rts = params.nav_for_rts(100)
    nav_cts = params.nav_for_cts(100)
    assert nav_rts > nav_cts > params.data_duration(100)


# ----------------------------------------------------------------- unicast
def test_unicast_delivery_and_completion():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    got, done = [], []
    b.mac.receive_callback = lambda p, f: got.append(p.uid)
    packet = _Data(payload_bytes=64, uid=a.next_packet_uid())
    sim.schedule(0.1, lambda: a.mac.send(packet, b.address, done.append))
    sim.run(until=1.0)
    assert got == [packet.uid]
    assert done == [True]


def test_unicast_uses_rts_cts_data_ack():
    sim, tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64, uid=a.next_packet_uid()), b.address))
    sim.run(until=1.0)
    kinds = [r.data["frame_kind"] for r in tracer.filter("phy.tx")]
    assert kinds == ["rts", "cts", "data", "ack"]


def test_rts_threshold_disables_handshake():
    params = Dot11Params(rts_threshold_bytes=10_000)
    sim, tracer, (a, b) = _net([Position(0, 0), Position(100, 0)], params)
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64, uid=a.next_packet_uid()), b.address))
    sim.run(until=1.0)
    kinds = [r.data["frame_kind"] for r in tracer.filter("phy.tx")]
    assert kinds == ["data", "ack"]


def test_unicast_to_unreachable_fails_after_retries():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(1000, 0)])
    done = []
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64, uid=a.next_packet_uid()), b.address, done.append))
    sim.run(until=5.0)
    assert done == [False]
    assert a.mac.stats.retry_drops == 1
    assert a.mac.stats.retries >= DEFAULT_DOT11.short_retry_limit - 1


def test_broadcast_no_handshake_no_retry():
    sim, tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    got, done = [], []
    b.mac.receive_callback = lambda p, f: got.append(p.uid)
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64, uid=a.next_packet_uid()), BROADCAST, done.append))
    sim.run(until=1.0)
    kinds = [r.data["frame_kind"] for r in tracer.filter("phy.tx")]
    assert kinds == ["data"]
    assert len(got) == 1
    assert done == [True]


def test_broadcast_reaches_all_in_range():
    sim, _tracer, nodes = _net([Position(0, 0), Position(100, 0), Position(200, 0), Position(600, 0)])
    got = {i: [] for i in range(4)}
    for i, node in enumerate(nodes):
        node.mac.receive_callback = lambda p, f, i=i: got[i].append(p.uid)
    sim.schedule(0.1, lambda: nodes[0].mac.send(_Data(payload_bytes=64, uid=nodes[0].next_packet_uid()), BROADCAST))
    sim.run(until=1.0)
    assert len(got[1]) == 1 and len(got[2]) == 1
    assert got[3] == []  # out of range


def test_queue_fifo_order():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    got = []
    b.mac.receive_callback = lambda p, f: got.append(p.uid)
    packets = [_Data(payload_bytes=64, uid=a.next_packet_uid()) for _ in range(5)]
    def send_all():
        for packet in packets:
            a.mac.send(packet, b.address)
    sim.schedule(0.1, send_all)
    sim.run(until=2.0)
    assert got == [p.uid for p in packets]


def test_queue_overflow_drops_and_reports():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    results = []
    def flood():
        for _ in range(60):  # queue_limit is 50
            a.mac.send(_Data(payload_bytes=64, uid=a.next_packet_uid()), b.address, results.append)
    sim.schedule(0.1, flood)
    sim.run(until=0.11)
    assert a.mac.stats.queue_drops > 0
    assert results.count(False) == a.mac.stats.queue_drops


def test_nav_defers_third_party():
    """A bystander hearing RTS must not transmit during the exchange."""
    sim, tracer, (a, b, c) = _net(
        [Position(0, 0), Position(100, 0), Position(200, 0)]
    )
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=512, uid=a.next_packet_uid()), b.address))
    # c queues a broadcast right after the RTS is on air.
    sim.schedule(0.1003, lambda: c.mac.send(_Data(payload_bytes=64, uid=c.next_packet_uid()), BROADCAST))
    sim.run(until=1.0)
    records = [
        (r.data["frame_kind"], r.node, r.time) for r in tracer.filter("phy.tx")
    ]
    exchange_frames = [r for r in records if r[1] in (0, 1)]
    c_tx = [r for r in records if r[1] == 2]
    assert c_tx, "bystander must eventually transmit"
    # The bystander's transmission comes after the protected exchange ends.
    assert c_tx[0][2] > max(t for _, _, t in exchange_frames)


def test_contention_window_resets_after_success():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64, uid=a.next_packet_uid()), b.address))
    sim.run(until=1.0)
    assert a.mac._cw == DEFAULT_DOT11.cw_min


def test_completion_callback_failure_for_broadcast_never():
    """Broadcasts cannot fail at the MAC (fire-and-forget semantics)."""
    sim, _tracer, (a, _b) = _net([Position(0, 0), Position(1000, 0)])
    done = []
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64, uid=a.next_packet_uid()), BROADCAST, done.append))
    sim.run(until=1.0)
    assert done == [True]


def test_stats_counters_consistent():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    for offset in range(3):
        sim.schedule(0.1 + offset * 0.05, lambda: a.mac.send(_Data(payload_bytes=64, uid=a.next_packet_uid()), b.address))
    sim.run(until=2.0)
    assert a.mac.stats.data_tx == 3
    assert a.mac.stats.rts_tx >= 3
    assert b.mac.stats.cts_tx >= 3
    assert b.mac.stats.ack_tx == 3
    assert b.mac.stats.delivered_up == 3
