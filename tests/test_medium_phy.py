"""Tests for the radio medium and PHY: ranges, capture, half-duplex."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.geo.vec import Position
from repro.net.addresses import BROADCAST, mac_for_node
from repro.net.mac.frames import FrameKind, MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.packet import Packet
from repro.net.phy import CAPTURE_DISTANCE_RATIO, PhyRadio
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


@dataclass
class _Blob(Packet):
    KIND = "blob"

    def header_bytes(self) -> int:
        return 0


def _radio(sim, medium, node_id, x, tracer=None):
    return PhyRadio(sim, node_id, medium, StaticMobility(Position(x, 0)), tracer)


def _frame(src_id):
    return MacFrame(
        FrameKind.DATA, mac_for_node(src_id), BROADCAST, packet=_Blob(uid=1, payload_bytes=100)
    )


def _received(radio):
    got = []
    class _Mac:
        """Receive-only double: it never sets ``radio.carrier_listen``, so
        the PHY makes no carrier callbacks and it needs none."""
        def on_frame(self, frame, tx):
            got.append(frame)
    radio.mac = _Mac()
    return got


def test_delivery_within_radio_range():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 249)
    got = _received(rx)
    tx.transmit(_frame(0), 0.001)
    sim.run()
    assert len(got) == 1


def test_no_delivery_beyond_radio_range():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 251)
    got = _received(rx)
    tx.transmit(_frame(0), 0.001)
    sim.run()
    assert got == []


def test_carrier_sensed_within_interference_range():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    far = _radio(sim, medium, 1, 500)  # 250 < 500 <= 550
    beyond = _radio(sim, medium, 2, 600)
    tx.transmit(_frame(0), 0.010)
    sim.run(until=0.005, max_events=100)
    assert far.carrier_busy
    assert not beyond.carrier_busy


def test_sender_busy_during_own_transmission():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    tx.transmit(_frame(0), 0.010)
    assert tx.carrier_busy
    sim.run()
    assert not tx.carrier_busy


def test_equal_strength_overlap_collides():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    b = _radio(sim, medium, 1, 400)
    mid = _radio(sim, medium, 2, 200)  # equidistant: no capture possible
    got = _received(mid)
    a.transmit(_frame(0), 0.002)
    b.transmit(_frame(1), 0.002)
    sim.run()
    assert got == []
    assert mid.frames_collided == 2


def test_capture_strong_near_frame_survives_far_interferer():
    sim = Simulator()
    medium = RadioMedium(sim)
    near = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 100)
    interferer = _radio(sim, medium, 2, 100 + 100 * CAPTURE_DISTANCE_RATIO + 50)
    got = _received(rx)
    near.transmit(_frame(0), 0.002)
    interferer.transmit(_frame(2), 0.002)
    sim.run()
    # The near frame captures; the interferer's own frame is corrupted at rx.
    assert [f.src for f in got] == [mac_for_node(0)]


def test_no_capture_when_interferer_too_close():
    sim = Simulator()
    medium = RadioMedium(sim)
    near = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 100)
    interferer = _radio(sim, medium, 2, 100 + 100 * CAPTURE_DISTANCE_RATIO - 20)
    got = _received(rx)
    near.transmit(_frame(0), 0.002)
    interferer.transmit(_frame(2), 0.002)
    sim.run()
    assert got == []


def test_half_duplex_receiver_transmitting_loses_frame():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    b = _radio(sim, medium, 1, 100)
    got = _received(b)
    a.transmit(_frame(0), 0.002)
    b.transmit(_frame(1), 0.002)  # b is deaf while transmitting
    sim.run()
    assert got == []


def test_sequential_frames_both_delivered():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 100)
    got = _received(rx)
    a.transmit(_frame(0), 0.001)
    sim.schedule(0.002, lambda: a.transmit(_frame(0), 0.001))
    sim.run()
    assert len(got) == 2


def test_sender_does_not_receive_own_frame():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    got = _received(a)
    a.transmit(_frame(0), 0.001)
    sim.run()
    assert got == []


def test_medium_rejects_interference_smaller_than_radio():
    with pytest.raises(ValueError):
        RadioMedium(Simulator(), radio_range=250, interference_range=100)


def test_phy_tx_trace_emitted():
    sim = Simulator()
    tracer = Tracer()
    medium = RadioMedium(sim, tracer)
    a = PhyRadio(sim, 0, medium, StaticMobility(Position(0, 0)), tracer)
    a.transmit(_frame(0), 0.001)
    sim.run()
    records = list(tracer.filter("phy.tx"))
    assert len(records) == 1
    assert records[0].data["packet_kind"] == "blob"
    assert records[0].data["pos"] == (0.0, 0.0)
