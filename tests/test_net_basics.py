"""Tests for addresses and the packet base class."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.geo.vec import Position
from repro.net.addresses import ADDRESS_BYTES, BROADCAST, MacAddress, mac_for_node
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


# ----------------------------------------------------------------- addresses
def test_broadcast_is_all_ones():
    assert BROADCAST.is_broadcast
    assert BROADCAST.to_bytes() == b"\xff" * ADDRESS_BYTES


def test_mac_for_node_unique_and_not_broadcast():
    macs = [mac_for_node(i) for i in range(100)]
    assert len(set(macs)) == 100
    assert not any(m.is_broadcast for m in macs)


def test_mac_for_node_rejects_negative():
    with pytest.raises(ValueError):
        mac_for_node(-1)


def test_mac_address_range_check():
    with pytest.raises(ValueError):
        MacAddress(1 << 48)
    with pytest.raises(ValueError):
        MacAddress(-1)


def test_mac_address_str_format():
    assert str(MacAddress(0x0000DEADBEEF)) == "00:00:de:ad:be:ef"


def test_mac_address_equality_and_hash():
    assert MacAddress(5) == MacAddress(5)
    assert len({MacAddress(5), MacAddress(5), MacAddress(6)}) == 2


# ------------------------------------------------------------------- packets
@dataclass
class _Probe(Packet):
    KIND = "probe"

    flag: int = 0

    def header_bytes(self) -> int:
        return 10


def _nodes(count: int) -> list:
    sim = Simulator()
    medium = RadioMedium(sim)
    rngs = RngRegistry(1)
    return [Node(sim, i, medium, StaticMobility(Position(0, 0)), rngs) for i in range(count)]


def test_packet_uid_unique_and_monotone():
    """Every node on one medium draws from the run's one sequence."""
    first, second = _nodes(2)
    a = _Probe(uid=first.next_packet_uid())
    b = _Probe(uid=second.next_packet_uid())
    assert (a.uid, b.uid) == (1, 2)


def test_next_packet_uid_increments():
    """Each run numbers its packets from 1, whatever ran before it."""
    (node,) = _nodes(1)
    assert [node.next_packet_uid() for _ in range(3)] == [1, 2, 3]
    (fresh,) = _nodes(1)
    assert fresh.next_packet_uid() == 1


def test_packet_uid_is_required():
    """The routers drop a uid they have seen, so a packet built without
    one must fail at construction, not collide with another."""
    with pytest.raises(TypeError, match="uid"):
        _Probe(payload_bytes=64)


def test_size_is_header_plus_payload():
    packet = _Probe(uid=1, payload_bytes=64)
    assert packet.size_bytes() == 74


def test_kind_comes_from_class():
    assert _Probe(uid=1).kind == "probe"


def test_clone_preserves_uid_and_changes_fields():
    packet = _Probe(uid=1, payload_bytes=64, flag=1)
    clone = packet.clone_for_forwarding(flag=2)
    assert clone.uid == packet.uid
    assert clone.flag == 2
    assert packet.flag == 1  # original untouched
    assert clone is not packet


def test_base_header_bytes_abstract():
    with pytest.raises(NotImplementedError):
        Packet(uid=1).header_bytes()
