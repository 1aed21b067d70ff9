"""Wire-size contract tests for every packet type.

Packet sizes feed MAC airtime and every overhead metric; each type's
``header_bytes`` must be positive, stable, and respond to its variable
parts the documented way.  The paper-anchored constants (6-byte
pseudonyms, 64-byte trapdoors) are pinned exactly.
"""

from __future__ import annotations

import pytest

from repro.core.agfw import AgfwAck, AgfwData, AntHello
from repro.core.aant import AantAttachment
from repro.core.als import AlsReply, AlsRequest, AlsUpdate
from repro.core.trapdoor import TrapdoorContents, TrapdoorFactory
from repro.geo.vec import Position
from repro.location.dlm import DlmReply, DlmRequest, DlmUpdate
from repro.routing.gpsr import GpsrBeacon, GpsrData


def _trapdoor():
    factory = TrapdoorFactory("modeled")
    trapdoor, _ = factory.seal("d", None, TrapdoorContents("s", Position(0, 0), 0.0))
    return trapdoor


ALL_PACKETS = [
    GpsrBeacon(sender_identity="a", position=Position(0, 0)),
    GpsrData(dest_identity="b", dest_location=Position(0, 0)),
    AntHello(pseudonym=b"\x01" * 6, position=Position(0, 0)),
    AgfwData(dest_location=Position(0, 0), trapdoor=_trapdoor()),
    AgfwAck(refs=(b"\x00" * 8,)),
    DlmUpdate(target_location=Position(0, 0), identity="a", position=Position(0, 0)),
    DlmRequest(target_location=Position(0, 0), requester_identity="a",
               requester_location=Position(0, 0), target_identity="b"),
    DlmReply(target_location=Position(0, 0), requester_identity="a",
             target_identity="b", target_position=Position(0, 0)),
    AlsUpdate(target_location=Position(0, 0), index=b"\x00" * 16, blob=_trapdoor()),
    AlsRequest(target_location=Position(0, 0), index=b"\x00" * 16,
               reply_location=Position(0, 0)),
    AlsReply(target_location=Position(0, 0), blobs=(_trapdoor(),)),
]


@pytest.mark.parametrize("packet", ALL_PACKETS, ids=lambda p: p.kind)
def test_header_positive_and_stable(packet):
    size = packet.header_bytes()
    assert size > 0
    assert packet.header_bytes() == size  # no hidden state
    assert packet.size_bytes() == size + packet.payload_bytes


@pytest.mark.parametrize("packet", ALL_PACKETS, ids=lambda p: p.kind)
def test_every_packet_has_wire_view(packet):
    """The adversary interface is total: every PDU declares its cleartext."""
    view = packet.wire_view()
    assert isinstance(view, dict)


def test_agfw_data_header_is_dominated_by_trapdoor():
    data = AgfwData(dest_location=Position(0, 0), trapdoor=_trapdoor())
    bare = AgfwData(dest_location=Position(0, 0), trapdoor=None)
    assert data.header_bytes() - bare.header_bytes() == 64


def test_agfw_ack_grows_per_ref():
    one = AgfwAck(refs=(b"\x00" * 8,))
    three = AgfwAck(refs=(b"\x00" * 8,) * 3)
    assert three.header_bytes() - one.header_bytes() == 16


def test_hello_auth_overhead_included():
    plain = AntHello(pseudonym=b"\x01" * 6, position=Position(0, 0))
    signed = AntHello(
        pseudonym=b"\x01" * 6,
        position=Position(0, 0),
        auth=AantAttachment(ring_size=5, extra_bytes=1000),
    )
    assert signed.header_bytes() == plain.header_bytes() + 1000


def test_als_reply_grows_per_blob():
    one = AlsReply(target_location=Position(0, 0), blobs=(_trapdoor(),))
    two = AlsReply(target_location=Position(0, 0), blobs=(_trapdoor(), _trapdoor()))
    assert two.header_bytes() - one.header_bytes() == 64


def test_pseudonym_adds_no_size_over_mac_addressing():
    """Paper Sec 5: 'we do not think that pseudonym applied in the protocol
    is an extra requirement for packet size' — 6 bytes, like a MAC address."""
    from repro.net.addresses import ADDRESS_BYTES, PSEUDONYM_BYTES

    assert PSEUDONYM_BYTES == ADDRESS_BYTES


def test_gpsr_beacon_smaller_than_aant_hello():
    """Anonymity costs nothing on plain hellos; authentication is what
    costs (the paper's Sec 4 tradeoff)."""
    beacon = GpsrBeacon(sender_identity="a", position=Position(0, 0))
    plain_hello = AntHello(pseudonym=b"\x01" * 6, position=Position(0, 0))
    assert abs(plain_hello.header_bytes() - beacon.header_bytes()) < 16
