"""Anonymity quantification.

Tools to measure what the protocol claims:

* **(k+1)-anonymity** of the authenticated ANT — "any neighbor in the
  table is indistinguishable from other k legitimate users."  For each
  observed ring-signed hello the anonymity set is its ring; the metric
  aggregates set sizes and the entropy of the adversary's posterior
  (uniform over the ring, since RST signatures are signer-ambiguous).
* **Sender entropy** of plain ANT hellos: without authentication the
  anonymity set is the whole legitimate population (any node could have
  minted any pseudonym), limited only by physical locality — a listener
  knows the sender is within radio range, so the honest measure is the
  number of nodes physically near the transmitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.adversary.sniffer import Observation
from repro.geo.vec import Position

__all__ = [
    "anonymity_entropy",
    "RingAnonymityReport",
    "ring_anonymity",
    "locality_anonymity_sets",
]


def anonymity_entropy(set_size: int) -> float:
    """Entropy (bits) of a uniform anonymity set of the given size."""
    if set_size < 1:
        raise ValueError("anonymity set must have at least one member")
    return math.log2(set_size)


@dataclass(frozen=True)
class RingAnonymityReport:
    """Aggregate over all observed ring-signed hellos."""

    hellos: int
    min_set_size: int
    mean_set_size: float
    mean_entropy_bits: float

    @property
    def k_anonymity(self) -> int:
        """The k in (k+1)-anonymity actually achieved (worst case)."""
        return self.min_set_size - 1


def ring_anonymity(observations: Iterable[Observation]) -> RingAnonymityReport:
    """Measure the anonymity sets of ring-signed hellos in a capture."""
    sizes: List[int] = []
    for obs in observations:
        if obs.packet_kind != "agfw.hello":
            continue
        auth = obs.wire.get("auth")
        if not auth:
            continue
        sizes.append(int(auth["ring_size"]))
    if not sizes:
        return RingAnonymityReport(0, 0, 0.0, 0.0)
    return RingAnonymityReport(
        hellos=len(sizes),
        min_set_size=min(sizes),
        mean_set_size=sum(sizes) / len(sizes),
        mean_entropy_bits=sum(anonymity_entropy(s) for s in sizes) / len(sizes),
    )


def locality_anonymity_sets(
    tx_positions: Sequence[Position],
    node_positions: Sequence[Position],
    radio_range: float = 250.0,
) -> List[int]:
    """For each observed transmission, how many nodes could have sent it.

    Unauthenticated pseudonyms give population-wide anonymity *logically*,
    but physics narrows it: the sender is within radio range of the
    observed transmission point.  Returns one candidate-set size per
    transmission (always >= 1: the true sender is a candidate).
    """
    limit = radio_range * radio_range
    sizes: List[int] = []
    for tx in tx_positions:
        count = sum(1 for p in node_positions if p.distance2_to(tx) <= limit)
        sizes.append(max(count, 1))
    return sizes
