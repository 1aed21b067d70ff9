"""Link-layer addresses and pseudonyms.

Plain 802.11 identifies stations by 6-byte MAC addresses.  AGFW never
puts a real MAC address on the air: every frame is sent to the broadcast
address from the :data:`ANONYMOUS` source address, and the
*network-layer* header names the next hop by a 6-byte **pseudonym**
instead (paper: "the size of pseudonym is equal to that of a typical
MAC address").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MacAddress",
    "BROADCAST",
    "ANONYMOUS",
    "mac_for_node",
    "ADDRESS_BYTES",
    "PSEUDONYM_BYTES",
    "LAST_ATTEMPT",
]

ADDRESS_BYTES = 6

PSEUDONYM_BYTES = 6
"""AGFW pseudonym width; matches a MAC address per the paper's evaluation."""

LAST_ATTEMPT = b"\x00" * PSEUDONYM_BYTES
"""The reserved pseudonym 0: 'try opening the trapdoor, no more forwarding'."""


@dataclass(frozen=True)
class MacAddress:
    """A 6-byte link-layer address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << (8 * ADDRESS_BYTES)):
            raise ValueError("MAC address outside 48-bit range")

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << (8 * ADDRESS_BYTES)) - 1

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(ADDRESS_BYTES, "big")

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ":".join(f"{b:02x}" for b in raw)

    def __repr__(self) -> str:
        return f"MacAddress({self})"


BROADCAST = MacAddress((1 << (8 * ADDRESS_BYTES)) - 1)
"""The predefined all-ones broadcast address AGFW frames are sent to."""

ANONYMOUS = MacAddress(0)
"""The all-zeros source address AGFW frames are sent from.

:func:`mac_for_node` never returns it, so it names no station."""


def mac_for_node(node_id: int) -> MacAddress:
    """A deterministic unicast MAC address for a simulated node id."""
    if node_id < 0:
        raise ValueError("node_id must be non-negative")
    address = MacAddress(node_id + 1)
    assert not address.is_broadcast
    return address
