"""Uniform-grid spatial index over mobile radios.

:class:`SpatialIndex` turns the medium's per-frame fan-out from a scan
over *all* radios into a scan over the radios binned in the few grid
cells that can possibly intersect the query disc.  It is designed to be
**outcome-invisible**: for any query it returns a superset-free, exactly
ordered candidate list such that filtering by true distance yields the
same radios, in the same (registration) order, as the brute-force scan.
The medium keeps the brute-force path available behind a flag and a
cross-check mode that asserts this equivalence on every transmission.

Why this is exact
-----------------
Cells live on an unbounded integer lattice of side ``cell_size``
(``cell = (floor(x / s), floor(y / s))``); no region bounds are needed.
Two points at Euclidean distance ``<= r`` differ by at most
``ceil(r / s)`` in each cell coordinate, so gathering the
``(2k+1) x (2k+1)`` block of cells around the query point with
``k = ceil(r / s)`` can never miss a radio **provided every radio is
binned at its current cell**.  The index maintains that invariant
lazily:

* When a radio is (re)binned at time ``t0`` it records a *validity
  horizon*: the earliest simulated time its interpolated position could
  cross its cell boundary, ``t0 + margin / speed_bound`` where
  ``margin`` is the distance from the position to the nearest cell edge
  and ``speed_bound`` comes from the mobility model (RWP exposes
  ``max_speed``; static models never expire).  RWP legs are straight
  lines at bounded speed, so the bound is sound for any leg sequence —
  including waypoint rolls and pauses — without the index knowing when
  legs change.
* Before answering a query at ``now``, :meth:`refresh` re-bins exactly
  the radios whose horizon has passed (a lazy min-heap pop), plus any
  radio whose mobility model offers no bound (those are re-binned every
  query, which degrades gracefully toward the brute-force cost for just
  those radios — never wrong answers).
* Teleporting models (``StaticMobility.move_to``) are discontinuous, so
  the index subscribes to their move notifications and marks the radio
  stale immediately.
* An optional ``refresh_quantum`` additionally caps every horizon, as a
  belt-and-braces bound for long-lived indexes.

Candidates are returned sorted by registration order, which is exactly
the iteration order of the brute-force radio list — so downstream
per-radio callbacks (``on_tx_start``) fire in an identical order and
the simulation stays bit-identical.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.geo.vec import Position

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.phy import PhyRadio

__all__ = ["SpatialIndex"]

_INF = math.inf


class _Entry:
    """Book-keeping for one indexed radio."""

    __slots__ = ("radio", "order", "cell", "valid_until", "stamp", "speed")

    def __init__(self, radio: "PhyRadio", order: int, speed: Optional[float]) -> None:
        self.radio = radio
        self.order = order
        self.cell: Tuple[int, int] = (0, 0)
        self.valid_until: float = -_INF
        #: Monotone re-bin counter; heap entries carry the stamp they were
        #: pushed with so stale heap tuples are recognized without float
        #: comparisons.
        self.stamp: int = 0
        #: Upper bound on the mobility model's speed; ``None`` means no
        #: usable bound — the entry is re-binned at every refresh instead
        #: of via the heap.
        self.speed = speed


class SpatialIndex:
    """Grid index over radios with mobility-aware lazy rebucketing.

    Parameters
    ----------
    cell_size:
        Side of the square cells in metres.  The medium uses its
        interference range, making the common fan-out query a 3x3-cell
        gather.
    refresh_quantum:
        Optional hard cap (seconds) on any entry's validity horizon;
        ``None`` (default) relies purely on the analytic
        boundary-crossing bound.
    """

    def __init__(self, cell_size: float, refresh_quantum: Optional[float] = None) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if refresh_quantum is not None and refresh_quantum <= 0:
            raise ValueError("refresh_quantum must be positive when given")
        self.cell_size = float(cell_size)
        self.refresh_quantum = refresh_quantum
        self._entries: List[_Entry] = []
        self._cells: Dict[Tuple[int, int], List[_Entry]] = {}
        #: (valid_until, stamp, order) — lazy min-heap of bounded entries.
        self._heap: List[Tuple[float, int, int]] = []
        self._unbounded: List[_Entry] = []
        #: Gather cache: (col, row, reach) -> (membership_version, radios).
        #: Valid while no radio changed cell; static topologies hit ~100%,
        #: RWP hits whenever no rebucketing occurred since the last query
        #: on the same cell.
        self._cache: Dict[Tuple[int, int, int], Tuple[int, List["PhyRadio"]]] = {}
        self._version = 0  # bumped whenever any cell's membership changes
        self._moving = 0  # entries whose positions can drift between queries
        # Telemetry (cheap ints; exposed via stats() for benchmarks/tests).
        self.rebins = 0
        self.refreshes = 0
        self.cache_hits = 0

    @property
    def version(self) -> int:
        """Monotone change stamp: bumped whenever any cell's membership
        changes *or* a teleport notification lands (even same-cell).
        External caches keyed on index-derived results compare this.
        """
        return self._version

    @property
    def all_static(self) -> bool:
        """True when no tracked radio can move between notifications.

        Teleporting models still notify via ``subscribe`` (which bumps the
        version), so version-stamped caches keyed on this property stay
        sound even across ``move_to`` discontinuities.
        """
        return self._moving == 0

    def stationary_stamp(self, now: float) -> int:
        """A stamp that holds while no radio can have moved, else -1.

        Equal non-negative stamps mean every radio sits where it sat.  The
        object backend proves only the infinite-horizon case: every model
        static, stamped by the version (teleports bump it).
        :class:`~repro.geo.spatial_array.ArraySpatialIndex` also proves
        paused random-waypoint windows.
        """
        return self._version if self._moving == 0 else -1

    # -------------------------------------------------------------- mutation
    def add(self, radio: "PhyRadio", now: float) -> None:
        """Start tracking ``radio`` (binned immediately at time ``now``)."""
        mobility = radio.mobility
        speed = self._speed_bound(mobility)
        entry = _Entry(radio, len(self._entries), speed)
        self._entries.append(entry)
        if speed is None:
            self._unbounded.append(entry)
        if speed is None or speed > 0.0:
            self._moving += 1
        # Part of the MobilityModel protocol: teleporting models notify on
        # discontinuities (mark stale so the next refresh re-bins from the
        # post-teleport position); continuous models register and never call.
        mobility.subscribe(lambda e=entry: self._invalidate(e))
        self._bin(entry, now, first=True)

    def invalidate_all(self) -> None:
        """Drop every version-stamped derived cache (gather cache here,
        the medium's fan-out memo downstream) by bumping the
        version.  Binning is untouched — node lifecycle faults change
        radio *liveness*, never geometry — so candidate queries keep
        their exactness proof while stamped consumers rebuild lazily."""
        self._version += 1

    def _invalidate(self, entry: _Entry) -> None:
        # A teleport can land inside the same cell, which changes positions
        # without changing membership — bump the version so position-derived
        # caches (the medium's fan-out memo) are dropped regardless.
        self._version += 1
        if entry.speed is not None and entry.valid_until != -_INF:
            entry.valid_until = -_INF
            entry.stamp += 1
            heappush(self._heap, (-_INF, entry.stamp, entry.order))

    # --------------------------------------------------------------- queries
    def candidates_within(self, center: Position, rng: float, now: float) -> List["PhyRadio"]:
        """Radios that *may* lie within ``rng`` metres of ``center``.

        A superset of the true answer (callers filter by exact distance),
        sorted by registration order so filtered results match the
        brute-force scan element for element.  The returned list is owned
        by the index's gather cache — callers must not mutate it.
        """
        self.refresh(now)
        s = self.cell_size
        reach = max(1, math.ceil(rng / s)) if rng > 0 else 0
        col = math.floor(center.x / s)
        row = math.floor(center.y / s)
        key = (col, row, reach)
        cached = self._cache.get(key)
        if cached is not None and cached[0] == self._version:
            self.cache_hits += 1
            return cached[1]
        cells = self._cells
        gathered: List[Tuple[int, "PhyRadio"]] = []
        for dc in range(-reach, reach + 1):
            for dr in range(-reach, reach + 1):
                bucket = cells.get((col + dc, row + dr))
                if bucket:
                    for entry in bucket:
                        gathered.append((entry.order, entry.radio))
        gathered.sort()  # orders are unique ints: native tuple sort, no key fn
        radios = [pair[1] for pair in gathered]
        self._cache[key] = (self._version, radios)
        return radios

    def refresh(self, now: float) -> None:
        """Re-bin every radio whose binned cell may be stale at ``now``."""
        self.refreshes += 1
        for entry in self._unbounded:
            self._bin(entry, now)
        heap = self._heap
        # Drain first, re-bin second: a radio sitting exactly on a cell
        # boundary gets a horizon of ``now`` when re-binned, and re-binning
        # inside the drain loop would pop it again forever.
        due: List[_Entry] = []
        while heap and heap[0][0] <= now:
            _, stamp, order = heappop(heap)
            entry = self._entries[order]
            if entry.stamp == stamp:  # not re-binned since this push
                due.append(entry)
        for entry in due:
            self._bin(entry, now)

    def stats(self) -> Dict[str, int]:
        """Index telemetry (sizes and rebin/refresh counters)."""
        return {
            "radios": len(self._entries),
            "cells": len(self._cells),
            "rebins": self.rebins,
            "refreshes": self.refreshes,
            "cache_hits": self.cache_hits,
        }

    # -------------------------------------------------------------- internal
    def _bin(self, entry: _Entry, now: float, first: bool = False) -> None:
        s = self.cell_size
        pos = entry.radio.mobility.position_at(now)
        cell = (math.floor(pos.x / s), math.floor(pos.y / s))
        if first or cell != entry.cell:
            if not first:
                old = self._cells.get(entry.cell)
                if old is not None:
                    old.remove(entry)
                    if not old:
                        del self._cells[entry.cell]
            self._cells.setdefault(cell, []).append(entry)
            entry.cell = cell
            self._version += 1  # membership changed: gather cache goes stale
        self.rebins += 1
        speed = entry.speed
        if speed is None:
            return  # refreshed unconditionally each query; no horizon needed
        if speed <= 0.0:
            horizon = _INF
        else:
            margin = min(
                pos.x - cell[0] * s,
                (cell[0] + 1) * s - pos.x,
                pos.y - cell[1] * s,
                (cell[1] + 1) * s - pos.y,
            )
            horizon = now + margin / speed
        if self.refresh_quantum is not None:
            horizon = min(horizon, now + self.refresh_quantum)
        entry.stamp += 1
        entry.valid_until = horizon
        if horizon < _INF:
            heappush(self._heap, (horizon, entry.stamp, entry.order))

    @staticmethod
    def _speed_bound(mobility: object) -> Optional[float]:
        """An upper bound on the model's speed, or ``None`` when unknowable.

        Models expose ``max_speed`` for their drift between subscribe
        notifications: 20 m/s for random waypoint, 0 for
        :class:`~repro.net.mobility.StaticMobility` (teleports arrive via
        :meth:`~repro.net.mobility.MobilityModel.subscribe`, which every
        model implements).  A model without the attribute is treated as
        unknowable and re-binned every query — slower, never wrong.
        """
        max_speed = getattr(mobility, "max_speed", None)
        if max_speed is not None:
            return float(max_speed)
        return None
