"""Planarization and face-routing geometry for perimeter mode.

GPSR's perimeter mode routes on a planar subgraph of the radio graph.
This module provides the Gabriel-graph (GG) and relative-neighborhood-
graph (RNG) edge filters plus the angular and segment-intersection
helpers the right-hand rule needs.  The paper lists perimeter recovery
as the natural extension of its greedy-only scheme ("recovery strategies
like perimeter forwarding could be applied ... our future work").
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, TypeVar

from repro.geo.vec import Position, midpoint

__all__ = [
    "gabriel_neighbors",
    "rng_neighbors",
    "right_hand_neighbor",
    "segments_cross",
    "crossing_point",
]

T = TypeVar("T")
Neighbor = Tuple[T, Position]


def gabriel_neighbors(
    own_position: Position, neighbors: Sequence[Neighbor]
) -> List[Neighbor]:
    """Gabriel-graph filter: keep edge (u,v) iff the circle with diameter
    uv contains no witness w, i.e. no w with d²(m,w) < d²(u,v)/4."""
    kept: List[Neighbor] = []
    for key, pos in neighbors:
        m = midpoint(own_position, pos)
        radius2 = own_position.distance2_to(pos) / 4.0
        blocked = any(
            other_key != key and m.distance2_to(other_pos) < radius2
            for other_key, other_pos in neighbors
        )
        if not blocked:
            kept.append((key, pos))
    return kept


def rng_neighbors(
    own_position: Position, neighbors: Sequence[Neighbor]
) -> List[Neighbor]:
    """Relative-neighborhood-graph filter: keep (u,v) iff no witness w is
    closer to *both* endpoints than they are to each other."""
    kept: List[Neighbor] = []
    for key, pos in neighbors:
        d2 = own_position.distance2_to(pos)
        blocked = any(
            other_key != key
            and own_position.distance2_to(other_pos) < d2
            and pos.distance2_to(other_pos) < d2
            for other_key, other_pos in neighbors
        )
        if not blocked:
            kept.append((key, pos))
    return kept


def right_hand_neighbor(
    own_position: Position,
    reference: Position,
    candidates: Sequence[Neighbor],
) -> Optional[Neighbor]:
    """The right-hand rule: first candidate counterclockwise from the
    reference direction (own→reference), sweeping about ``own_position``.

    Arriving from node p, passing ``reference=p`` selects the next edge of
    the current face.  Returns None when there are no candidates.
    """
    if not candidates:
        return None
    ref_angle = math.atan2(reference.y - own_position.y, reference.x - own_position.x)

    def sweep(item: Neighbor) -> float:
        _, pos = item
        angle = math.atan2(pos.y - own_position.y, pos.x - own_position.x)
        delta = (angle - ref_angle) % (2 * math.pi)
        # A candidate exactly along the reference direction (delta==0) is the
        # *last* choice (full sweep), not the first — that is what lets the
        # rule bounce back along a dangling edge only when forced to.
        return delta if delta > 1e-12 else 2 * math.pi
    return min(candidates, key=sweep)


def _orient(a: Position, b: Position, c: Position) -> float:
    """Twice the signed area of triangle abc (>0 = counterclockwise)."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def segments_cross(a: Position, b: Position, c: Position, d: Position) -> bool:
    """True when open segments ab and cd properly intersect."""
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


def crossing_point(
    a: Position, b: Position, c: Position, d: Position
) -> Optional[Position]:
    """Intersection point of properly crossing segments ab and cd.

    Computed from the same orientation predicates as :func:`segments_cross`
    so the two functions can never disagree on near-degenerate inputs:
    when the segments properly cross, ``t = o3 / (o3 - o4)`` is the
    intersection parameter along ab, and ``o3 - o4`` is nonzero because
    o3 and o4 have strictly opposite signs.
    """
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if not ((o1 * o2 < 0) and (o3 * o4 < 0)):
        return None
    t = o3 / (o3 - o4)
    return Position(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
