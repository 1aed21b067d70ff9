"""Next-hop selection strategies over the ANT (paper Section 3.1.1).

Because the ANT holds multiple unlinkable entries per physical neighbor,
"not only the position but the freshness should also be considered in
the forwarding decision."  Two strategies are provided:

* ``best_position`` — the classic greedy rule: minimum distance to the
  destination, freshness ignored (the paper's strawman).
* ``freshest_progress`` — exponentially discount an entry's progress by
  its age, so a fresh entry with slightly less progress beats a stale
  "best" entry (the paper's recommendation).  When a velocity was
  advertised, the dead-reckoned position is used.

The ``freshness`` sweep of ``examples/campaigns/ablations.toml``
quantifies the difference.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence

from repro.core.ant import AntEntry
from repro.geo.vec import Position

__all__ = ["NextHopStrategy", "best_position", "freshest_progress", "STRATEGIES"]

NextHopStrategy = Callable[[Position, Position, Sequence[AntEntry], float, float], Optional[AntEntry]]
"""(own_pos, target, candidates, now, timeout) -> chosen entry or None."""


def best_position(
    own_position: Position,
    target: Position,
    candidates: Sequence[AntEntry],
    now: float,
    timeout: float,
) -> Optional[AntEntry]:
    """Pure greedy: the candidate whose advertised position is closest to
    the target, regardless of how stale the advertisement is."""
    if not candidates:
        return None
    return min(candidates, key=lambda e: e.position.distance2_to(target))


def freshest_progress(
    own_position: Position,
    target: Position,
    candidates: Sequence[AntEntry],
    now: float,
    timeout: float,
) -> Optional[AntEntry]:
    """Freshness-discounted progress.

    Score = (progress toward target) * exp(-age / tau), tau = timeout/3.
    Uses the dead-reckoned position when the entry advertised velocity.
    Entries whose *predicted* position no longer makes progress are
    skipped, falling back to advertised positions if that empties the set.
    """
    if not candidates:
        return None
    tau = max(timeout / 3.0, 1e-9)
    own_d = math.sqrt(own_position.distance2_to(target))

    def score(entry: AntEntry) -> float:
        predicted = entry.predicted_position(now)
        progress = own_d - math.sqrt(predicted.distance2_to(target))
        return progress * math.exp(-entry.age(now) / tau)

    best = max(candidates, key=score)
    if score(best) > 0:
        return best
    # Prediction says nobody makes progress; trust advertised positions.
    return best_position(own_position, target, candidates, now, timeout)


STRATEGIES: Dict[str, NextHopStrategy] = {
    "best_position": best_position,
    "freshest_progress": freshest_progress,
}
"""Registry used by :class:`~repro.core.agfw.AgfwRouter` via config string."""
