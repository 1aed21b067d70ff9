"""Network substrate: radio medium, PHY, 802.11 DCF MAC, mobility, nodes."""

from repro.net.addresses import ADDRESS_BYTES, BROADCAST, MacAddress, mac_for_node
from repro.net.medium import RadioMedium, Transmission
from repro.net.mobility import (
    MobilityModel,
    RandomWaypointMobility,
    StaticMobility,
    WaypointLeg,
)
from repro.net.node import Node, RouterAgent
from repro.net.packet import Packet
from repro.net.phy import PhyRadio

__all__ = [
    "ADDRESS_BYTES",
    "BROADCAST",
    "MacAddress",
    "mac_for_node",
    "RadioMedium",
    "Transmission",
    "MobilityModel",
    "RandomWaypointMobility",
    "StaticMobility",
    "WaypointLeg",
    "Node",
    "RouterAgent",
    "Packet",
    "PhyRadio",
]
