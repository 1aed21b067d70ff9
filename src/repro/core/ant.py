"""The Anonymous Neighbor Table (paper Section 3.1).

Entries are keyed by **pseudonym**, not identity: a receiver of two
hello messages from the same physical neighbor *cannot correlate them*
(a feature — that is the anonymity), so one neighbor legitimately
occupies multiple entries, each a ``<n, loc, ts, timeout>`` tuple.

The multiple-entry effect is what motivates the paper's freshness-aware
forwarding (Section 3.1.1): "the previous hop selects n1 just because n1
is in best position, but it didn't notice that n2, indicating a fresher
position of the same neighbor, is in a better position."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.geo.vec import Position

__all__ = ["AntEntry", "AnonymousNeighborTable"]


@dataclass(slots=True)
class AntEntry:
    """One ``<n, loc, ts, t_o>`` row of the ANT."""

    pseudonym: bytes
    position: Position
    timestamp: float
    velocity: Tuple[float, float] = (0.0, 0.0)

    def age(self, now: float) -> float:
        return now - self.timestamp

    def predicted_position(self, now: float) -> Position:
        """Dead-reckoned position when velocity was advertised.

        The paper: "forwarding could be better if the node movement is
        predictable, for example, velocity and direction are available
        with position."
        """
        dt = now - self.timestamp
        vx, vy = self.velocity
        return self.position.translated(vx * dt, vy * dt)


class AnonymousNeighborTable:
    """Pseudonym-keyed neighbor table with per-entry expiry."""

    def __init__(self, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self._entries: Dict[bytes, AntEntry] = {}

    # --------------------------------------------------------------- updates
    def update(
        self,
        pseudonym: bytes,
        position: Position,
        now: float,
        velocity: Tuple[float, float] = (0.0, 0.0),
    ) -> None:
        """Insert a hello observation.  A repeated pseudonym refreshes in
        place (the sender re-announced before rotating); a new pseudonym
        creates a fresh row even if it belongs to a known neighbor —
        by design, the receiver cannot tell."""
        self._entries[pseudonym] = AntEntry(pseudonym, position, now, velocity)

    def remove(self, pseudonym: bytes) -> None:
        """Evict a pseudonym (e.g. after repeated NL-ACK failures)."""
        self._entries.pop(pseudonym, None)

    def purge(self, now: float) -> int:
        """Drop expired rows; returns the count removed."""
        dead = [n for n, e in self._entries.items() if e.age(now) > self.timeout]
        for pseudonym in dead:
            del self._entries[pseudonym]
        return len(dead)

    def clear(self) -> None:
        """Drop every entry (node crash: the ANT is volatile state)."""
        self._entries.clear()

    # --------------------------------------------------------------- queries
    def get(self, pseudonym: bytes) -> Optional[AntEntry]:
        return self._entries.get(pseudonym)

    def entries(self, now: Optional[float] = None) -> List[AntEntry]:
        if now is None:
            return list(self._entries.values())
        return [e for e in self._entries.values() if e.age(now) <= self.timeout]

    def candidates_towards(
        self, target: Position, own_position: Position, now: float
    ) -> List[AntEntry]:
        """Live entries whose position is strictly closer to ``target``
        than we are — the greedy candidate set a strategy chooses from."""
        own_d2 = own_position.distance2_to(target)
        return [
            e
            for e in self.entries(now)
            if e.position.distance2_to(target) < own_d2
        ]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pseudonym: bytes) -> bool:
        return pseudonym in self._entries
