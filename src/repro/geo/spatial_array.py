"""Uniform-grid spatial index over mobile radios, backed by numpy arrays.

:class:`ArraySpatialIndex` turns the medium's per-frame fan-out from a
scan over *all* radios into a scan over the radios binned in the few
grid cells that can possibly intersect the query disc.  It is
**outcome-invisible**: filtering its candidates by true distance yields
the same radios, in the same (registration) order, as the brute-force
scan the medium keeps as its reference (``reference=True``); the test
suite asserts exactly that on every query.

Why the grid is exact
---------------------
Cells live on an unbounded integer lattice of side ``cell_size``
(``cell = (floor(x / s), floor(y / s))``).  Two points at Euclidean
distance ``<= r`` differ by at most ``ceil(r / s)`` in each cell
coordinate, so the ``(2k+1) x (2k+1)`` block of cells around the query
point with ``k = ceil(r / s)`` can never miss a radio **provided every
radio is binned at its current cell**.  The index keeps that invariant
lazily: a radio binned at ``t0`` records a *validity horizon*
``t0 + margin / speed_bound`` (``margin`` = distance to the nearest cell
edge, ``speed_bound`` = the model's ``max_speed``; static models never
expire), and a query at ``now`` re-bins exactly the rows whose horizon
has passed.  Teleports arrive through the mobility ``subscribe``
callback and mark the row stale at once.

Representation
--------------
The whole population lives in flat numpy arrays — int32 cell
coordinates, float64 validity horizons, and a
:class:`~repro.geo.vecops.LegArrays` structure-of-arrays of every node's
current motion leg — so the per-query work collapses into a handful of
ufunc sweeps:

* **positions**: one :func:`~repro.geo.vecops.batch_position_at` call
  interpolates every leg at once (cached per distinct query time);
* **horizon sweep**: one vectorized compare (``valid_until <= now``)
  finds every stale binning, and the due rows are re-binned/re-margined
  with :func:`~repro.geo.vecops.batch_cells` /
  :func:`~repro.geo.vecops.batch_cell_margins`;
* **gather**: the candidate cut is a window test on the int32 cell
  arrays (``|col - qcol| <= reach``), and ``np.flatnonzero`` yields row
  indices in ascending order — which *is* registration order.

:meth:`classify_fanout` goes one step further for the medium's hot path:
it returns the fully *classified* fan-out of a transmission — affected
rows, per-receiver deliverability, and scalar distances — with the
squared distances computed by the same ``dx*dx + dy*dy`` operations as
:meth:`Position.distance2_to` and the true distances by scalar
``math.hypot`` on the batch-derived deltas, so every comparison and
every loss-model draw downstream sees **bitwise identical** floats to
the brute scalar scan.

Leg tracking without notifications
----------------------------------
RWP's ``subscribe`` is a protocol no-op (continuous trajectories), so
the index discovers leg rolls itself: a roll can only have happened on a
row whose *stored* ``arrive`` time has passed, so one vector compare
finds the candidates and an identity check against ``current_leg``
re-syncs just those rows.  Chained legs make even a stale row harmless
at the roll instant (old leg at ``t >= arrive`` returns its target; the
new leg at ``t <= depart`` returns its origin — the same object).

Row kinds
---------
* **leg** rows (models exposing ``current_leg``) interpolate in the
  batch kernel and re-bin on analytic horizons (``max_speed`` bound);
* **fixed** rows (``max_speed == 0``) are written once and refreshed
  only when the model's ``subscribe`` callback reports a teleport;
* **opaque** rows (anything else) are re-read via scalar
  ``position_at`` on every recompute and re-binned every refresh —
  degrading gracefully toward the brute-force cost for just those rows,
  never toward wrong answers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.geo.vec import Position
from repro.geo.vecops import (
    LegArrays,
    batch_cell_margins,
    batch_cells,
    batch_position_at,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.phy import PhyRadio

__all__ = ["ArraySpatialIndex", "FanOut"]

_INF = math.inf

#: Sentinel in the speed array for "no usable bound" (re-bin every query).
_UNBOUNDED = -1.0


class FanOut:
    """One transmission's classified fan-out, in registration order.

    ``rows[i]`` is the registration index of the i-th affected radio
    (sender excluded); ``deliverable[i]`` is the in-radio-range verdict;
    ``dx/dy`` are receiver-minus-sender deltas as plain Python floats,
    from which callers take ``math.hypot`` for the capture/loss-model
    distance.  ``sx``/``sy`` is the sender's own batch-derived position.
    """

    __slots__ = ("sx", "sy", "rows", "dx", "dy", "deliverable")

    def __init__(
        self,
        sx: float,
        sy: float,
        rows: List[int],
        dx: List[float],
        dy: List[float],
        deliverable: List[bool],
    ) -> None:
        self.sx = sx
        self.sy = sy
        self.rows = rows
        self.dx = dx
        self.dy = dy
        self.deliverable = deliverable


class ArraySpatialIndex:
    """Grid index over radios with mobility-aware lazy rebinning.

    The surface is ``add`` / ``candidates_within`` / ``refresh`` /
    ``invalidate_all`` / ``version`` / ``stationary_stamp`` / ``stats``,
    plus the batched queries (:meth:`positions_at`,
    :meth:`classify_fanout`) the medium's transmit path uses.
    ``cell_size`` is the side of the square cells in metres; the medium
    uses its interference range, making a fan-out a 3x3-cell gather.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)

        self._legs = LegArrays()
        cap = len(self._legs.ox)
        self._col = np.zeros(cap, dtype=np.int32)
        self._row = np.zeros(cap, dtype=np.int32)
        self._valid = np.zeros(cap)  # validity horizon per row
        self._speed = np.zeros(cap)  # bound; _UNBOUNDED = rebin every query
        self._is_leg = np.zeros(cap, dtype=bool)
        self._pos_x = np.empty(cap)  # batch_position_at out-buffers
        self._pos_y = np.empty(cap)
        self._fan_dx = np.empty(cap)  # classify_fanout out-buffers
        self._fan_dy = np.empty(cap)
        self._fan_d2 = np.empty(cap)
        self._fan_t = np.empty(cap)
        self._fan_hit = np.empty(cap, dtype=bool)
        self._fan_n = -1  # size the cached fan scratch views were cut at
        self._fan_views: Tuple["np.ndarray", ...] = ()

        self._radios: List["PhyRadio"] = []  # row -> radio (registration order)
        self._mobs: List[object] = []  # row -> mobility model
        self._seen_legs: List[object] = []  # row -> last synced WaypointLeg
        self._row_by_node: Dict[int, int] = {}
        self._scalar_rows: List[int] = []  # opaque: scalar-refresh every query
        self._dirty_rows: List[int] = []  # fixed rows teleported since last sync
        #: Positions cache: valid while (time, epoch) both match.  The
        #: epoch advances on any discontinuity (teleport, add); leg rolls
        #: need no bump — chained legs agree bitwise at the roll instant.
        self._pos_time: Optional[float] = None
        self._pos_epoch = -1
        self._pos_view: Tuple["np.ndarray", "np.ndarray"] = (
            self._pos_x[:0], self._pos_y[:0],
        )
        self._epoch = 0
        #: Scalar hot-path guards: the earliest instant any leg can have
        #: rolled / any binning horizon can have expired.  Conservative
        #: (never later than the true instant), so a stale value only
        #: costs an extra sweep, never skips a needed one.
        self._next_roll = -_INF
        self._next_due = -_INF
        #: Occupied-cell bounding box (grows monotonically; a too-large
        #: box merely routes a query to the windowed slow path).
        self._min_col = self._min_row = 2**31 - 1
        self._max_col = self._max_row = -(2**31)

        #: Gather cache: (col, row, reach) -> (membership_version, radios).
        #: Valid while no radio changed cell.
        self._cache: Dict[Tuple[int, int, int], Tuple[int, List["PhyRadio"]]] = {}
        self._version = 0
        #: Stationary window (see :meth:`stationary_stamp`): the current
        #: window's stamp and last instant, and the earliest instant a new
        #: window can open (scalar retry guard for mobile populations).
        self._still_stamp = 0
        self._still_until = -_INF
        self._still_retry = -_INF
        self.rebins = 0
        self.refreshes = 0
        self.cache_hits = 0

    # ---------------------------------------------------------- properties
    @property
    def version(self) -> int:
        """Monotone change stamp (cell membership changes and teleports)."""
        return self._version

    # ------------------------------------------------------------ mutation
    def add(self, radio: "PhyRadio", now: float) -> None:
        """Start tracking ``radio`` (binned immediately at time ``now``)."""
        mobility = radio.mobility
        row = self._legs.append_row()
        if row >= len(self._col):
            self._grow_side_arrays()
        self._radios.append(radio)
        self._mobs.append(mobility)
        self._seen_legs.append(None)
        self._row_by_node[radio.node_id] = row

        leg = getattr(mobility, "current_leg", None)
        max_speed = getattr(mobility, "max_speed", None)
        if leg is not None:
            self._is_leg[row] = True
            self._seen_legs[row] = leg
            self._legs.set_leg(row, leg)
            self._speed[row] = float(max_speed) if max_speed is not None else _UNBOUNDED
            if leg.arrive_time < self._next_roll:
                self._next_roll = leg.arrive_time
        else:
            self._is_leg[row] = False
            pos = mobility.position_at(now)
            self._legs.set_fixed(row, pos.x, pos.y)
            if max_speed is None:
                self._speed[row] = _UNBOUNDED
                self._scalar_rows.append(row)
            elif float(max_speed) > 0.0:
                # Bounded drift but no leg representation: horizons keep the
                # binning honest, scalar reads keep the positions honest.
                self._speed[row] = float(max_speed)
                self._scalar_rows.append(row)
            else:
                self._speed[row] = 0.0  # fixed: refreshed via subscribe only
        self._end_stationary()
        # Protocol subscribe: teleports must both re-position and re-bin.
        mobility.subscribe(lambda r=row: self._on_teleport(r))
        self._epoch += 1
        self._pos_time = None  # new row: any cached position set is short
        self._bin_row(row, now)

    def _grow_side_arrays(self) -> None:
        cap = len(self._legs.ox)  # LegArrays just doubled
        for name, dtype in (
            ("_col", np.int32), ("_row", np.int32), ("_valid", None),
            ("_speed", None), ("_is_leg", bool),
        ):
            old = getattr(self, name)
            fresh = np.zeros(cap, dtype=dtype) if dtype is not None else np.zeros(cap)
            fresh[: len(old)] = old
            setattr(self, name, fresh)
        self._pos_x = np.empty(cap)
        self._pos_y = np.empty(cap)
        self._fan_dx = np.empty(cap)
        self._fan_dy = np.empty(cap)
        self._fan_d2 = np.empty(cap)
        self._fan_t = np.empty(cap)
        self._fan_hit = np.empty(cap, dtype=bool)
        self._fan_n = -1  # views point at the old arrays

    def invalidate_all(self) -> None:
        """Bump the version so stamped derived caches (the gather cache
        here, the medium's fan-out memo downstream) rebuild.  Liveness
        faults change radio liveness, never geometry, so binning is
        untouched."""
        self._version += 1
        self._end_stationary()

    def _on_teleport(self, row: int) -> None:
        """Subscribe callback: a discontinuity landed on ``row``."""
        self._version += 1  # same-cell teleports still move positions
        self._epoch += 1  # cached batch positions are stale
        self._valid[row] = -_INF  # re-bin at next refresh
        self._next_due = -_INF  # ... which the refresh guard must not skip
        self._dirty_rows.append(row)  # re-read the scalar position
        self._end_stationary()

    # ---------------------------------------------------------- stationarity
    def _end_stationary(self) -> None:
        """Close the current stationary window (a discontinuity landed)."""
        self._still_until = -_INF
        self._still_retry = -_INF

    def stationary_stamp(self, now: float) -> int:
        """A stamp that holds while no tracked radio can have moved, else -1.

        Two calls that return the same non-negative stamp see every radio
        at bitwise the same position.  A window opens when every leg row
        is paused (``now <= depart``: the batch kernel returns the origin)
        and lasts until the earliest ``depart``; fixed rows never move
        between teleports, and teleports, adds and :meth:`invalidate_all`
        close the window.  Opaque rows can move unannounced, so a
        population holding any never gets a stamp.  Once some leg has
        departed, no window can open before its arrival, so mobile
        populations pay one scalar compare per call.
        """
        if now <= self._still_until:
            return self._still_stamp
        if now < self._still_retry or self._scalar_rows:
            return -1
        self._sync_rows(now)  # rolled legs carry the new depart times
        n = self._legs.size
        is_leg = self._is_leg[:n]
        depart = self._legs.depart[:n][is_leg]
        until = float(depart.min()) if depart.size else _INF
        if now > until:
            arrive = self._legs.arrive[:n][is_leg]
            self._still_retry = max(
                float(arrive[depart < now].max()), math.nextafter(now, _INF)
            )
            return -1
        self._still_stamp += 1
        self._still_until = until
        return self._still_stamp

    # ----------------------------------------------------------- positions
    def positions_at(self, now: float) -> Tuple["np.ndarray", "np.ndarray"]:
        """Every tracked radio's position at ``now`` (row = registration
        order), bitwise equal to the scalar ``position_at`` results.

        Cached per distinct ``(now, epoch)``; opaque rows disable the
        cache (their positions can change without notification).
        """
        if (
            # Deliberately exact: the cache key is the precise query
            # instant — a tolerance would serve stale positions.
            self._pos_time == now  # repro: noqa[DET-004] cache key, not a comparison
            and self._pos_epoch == self._epoch
            and not self._scalar_rows
        ):
            return self._pos_view
        self._sync_rows(now)
        x, y = batch_position_at(self._legs, now, self._pos_x, self._pos_y)
        self._pos_view = (x, y)
        self._pos_time = now
        self._pos_epoch = self._epoch
        return x, y

    def _sync_rows(self, now: float) -> None:
        """Bring leg/fixed/opaque rows up to date before interpolating."""
        legs = self._legs
        n = legs.size
        # A leg can only have rolled where the stored leg has arrived;
        # the scalar guard skips the vector scan until the earliest
        # stored arrival, then the identity check covers just those rows.
        if now >= self._next_roll:
            maybe = np.flatnonzero(self._is_leg[:n] & (legs.arrive[:n] <= now))
            if maybe.size:
                mobs = self._mobs
                seen = self._seen_legs
                for row in maybe.tolist():
                    leg = mobs[row].current_leg  # type: ignore[attr-defined]
                    if leg is not seen[row]:
                        seen[row] = leg
                        legs.set_leg(row, leg)
            is_leg = self._is_leg[:n]
            arrivals = legs.arrive[:n][is_leg]
            self._next_roll = float(arrivals.min()) if arrivals.size else _INF
        if self._dirty_rows:
            for row in self._dirty_rows:
                pos = self._mobs[row].position_at(now)  # type: ignore[attr-defined]
                legs.set_fixed(row, pos.x, pos.y)
            self._dirty_rows.clear()
        for row in self._scalar_rows:
            pos = self._mobs[row].position_at(now)  # type: ignore[attr-defined]
            legs.set_fixed(row, pos.x, pos.y)

    # ------------------------------------------------------------- binning
    def refresh(self, now: float) -> None:
        """Vectorized horizon sweep: re-bin every row whose binned cell
        may be stale at ``now`` (one compare instead of heap pops)."""
        self.refreshes += 1
        n = self._legs.size
        if n == 0:
            return
        if now < self._next_due:
            return  # no horizon can have expired yet (scalar guard)
        x, y = self.positions_at(now)
        due = np.flatnonzero(self._valid[:n] <= now)
        if not due.size:
            self._next_due = float(self._valid[:n].min())
            return
        s = self.cell_size
        if due.size <= 8:
            # A node that just crossed a cell edge re-bins with a tiny
            # margin, so 1-2 rows come due almost every query; the ~20
            # ufunc dispatches of the batch path dwarf the work.  Scalar
            # replica of the batch formulas (same doubles, same compare).
            for row in due.tolist():
                px, py = float(x[row]), float(y[row])
                col, crow = math.floor(px / s), math.floor(py / s)
                if col != self._col[row] or crow != self._row[row]:
                    self._version += 1
                    self._cache.clear()
                self._col[row] = col
                self._row[row] = crow
                if col < self._min_col:
                    self._min_col = col
                if col > self._max_col:
                    self._max_col = col
                if crow < self._min_row:
                    self._min_row = crow
                if crow > self._max_row:
                    self._max_row = crow
                speed = float(self._speed[row])
                if speed == _UNBOUNDED:
                    horizon = -_INF
                elif speed == 0.0:
                    horizon = _INF
                else:
                    margin = min(
                        px - col * s, (col + 1) * s - px,
                        py - crow * s, (crow + 1) * s - py,
                    )
                    horizon = now + margin / speed
                self._valid[row] = horizon
            self._next_due = float(self._valid[:n].min())
            self.rebins += int(due.size)
            return
        dx, dy = x[due], y[due]
        ncol, nrow = batch_cells(dx, dy, s)
        if np.any((ncol != self._col[due]) | (nrow != self._row[due])):
            self._version += 1
            self._cache.clear()
        self._col[due] = ncol
        self._row[due] = nrow
        self._min_col = min(self._min_col, int(ncol.min()))
        self._max_col = max(self._max_col, int(ncol.max()))
        self._min_row = min(self._min_row, int(nrow.min()))
        self._max_row = max(self._max_row, int(nrow.max()))
        margins = batch_cell_margins(dx, dy, ncol, nrow, s)
        spd = self._speed[due]
        positive = spd > 0.0
        horizon = np.where(
            positive,
            now + np.divide(margins, spd, out=np.zeros(len(due)), where=positive),
            np.where(spd == 0.0, _INF, -_INF),  # fixed: forever; unbounded: never
        )
        self._valid[due] = horizon
        self._next_due = float(self._valid[:n].min())
        self.rebins += int(due.size)

    def _bin_row(self, row: int, now: float) -> None:
        """Scalar first-time binning for one freshly added row."""
        self._sync_rows(now)
        legs = self._legs
        # Scalar replica of the batch kernel for a single row.
        if now >= legs.arrive[row]:
            px, py = float(legs.gx[row]), float(legs.gy[row])
        elif now <= legs.depart[row]:
            px, py = float(legs.ox[row]), float(legs.oy[row])
        else:  # pragma: no cover - adds happen at leg start in practice
            frac = (now - legs.depart[row]) / (legs.arrive[row] - legs.depart[row])
            px = float((legs.gx[row] - legs.ox[row]) * frac + legs.ox[row])
            py = float((legs.gy[row] - legs.oy[row]) * frac + legs.oy[row])
        s = self.cell_size
        col, crow = math.floor(px / s), math.floor(py / s)
        self._col[row] = col
        self._row[row] = crow
        if col < self._min_col:
            self._min_col = col
        if col > self._max_col:
            self._max_col = col
        if crow < self._min_row:
            self._min_row = crow
        if crow > self._max_row:
            self._max_row = crow
        speed = float(self._speed[row])
        if speed == _UNBOUNDED:
            horizon = -_INF
        elif speed == 0.0:
            horizon = _INF
        else:
            margin = min(px - col * s, (col + 1) * s - px, py - crow * s, (crow + 1) * s - py)
            horizon = now + margin / speed
        self._valid[row] = horizon
        if horizon < self._next_due:
            self._next_due = horizon
        self._version += 1
        self._cache.clear()
        self.rebins += 1

    # ------------------------------------------------------------- queries
    def candidates_within(self, center: Position, rng: float, now: float) -> List["PhyRadio"]:
        """Superset of radios within ``rng`` of ``center``, registration
        order, so filtered results match the brute-force scan element for
        element (callers filter by exact distance; the returned list is
        cache-owned and must not be mutated)."""
        self.refresh(now)
        s = self.cell_size
        reach = max(1, math.ceil(rng / s)) if rng > 0 else 0
        qcol = math.floor(center.x / s)
        qrow = math.floor(center.y / s)
        key = (qcol, qrow, reach)
        cached = self._cache.get(key)
        if cached is not None and cached[0] == self._version:
            self.cache_hits += 1
            return cached[1]
        n = self._legs.size
        hit = (np.abs(self._col[:n] - qcol) <= reach) & (
            np.abs(self._row[:n] - qrow) <= reach
        )
        radios = self._radios
        result = [radios[row] for row in np.flatnonzero(hit).tolist()]
        self._cache[key] = (self._version, result)
        return result

    def classify_fanout(
        self,
        sender_node_id: int,
        now: float,
        rng: float,
        radio_range2: float,
        interference_range2: float,
    ) -> FanOut:
        """The medium's transmit hot path, fully batched.

        One horizon sweep + one position kernel + one cell-window cut +
        one squared-distance sweep classify the whole fan-out.  Every
        float that escapes (sender position, deltas) is bitwise equal to
        what the brute scan computes radio-by-radio.
        """
        self.refresh(now)
        x, y = self.positions_at(now)
        srow = self._row_by_node[sender_node_id]
        sx = float(x[srow])
        sy = float(y[srow])
        s = self.cell_size
        reach = max(1, math.ceil(rng / s)) if rng > 0 else 0
        qcol = math.floor(sx / s)
        qrow = math.floor(sy / s)
        n = self._legs.size
        if (
            interference_range2 <= rng * rng
            or (
                qcol - reach <= self._min_col
                and self._max_col <= qcol + reach
                and qrow - reach <= self._min_row
                and self._max_row <= qrow + reach
            )
        ):
            # Classify the whole population directly, skipping the cell
            # window.  Sound whenever the window is a *superset* of the
            # interference disc — guaranteed when ``i2 <= rng**2`` (any
            # point within ``rng`` lies within ``ceil(rng/s)`` cells,
            # the medium's call shape), or when the window covers every
            # occupied cell (bounding-box check) — so the final
            # ``d2 <= i2`` filter yields identical membership, and
            # ascending row order *is* registration order: bitwise the
            # same FanOut, minus the mask/gather ufuncs.  Both paths
            # sweep all ``n`` cell entries anyway; this one has the
            # smaller constant.
            if self._fan_n != n:
                self._fan_views = (
                    self._fan_dx[:n], self._fan_dy[:n], self._fan_d2[:n],
                    self._fan_t[:n], self._fan_hit[:n],
                )
                self._fan_n = n
            dx, dy, d2, t, hit = self._fan_views
            np.subtract(x, sx, out=dx)
            np.subtract(y, sy, out=dy)
            np.multiply(dx, dx, out=d2)
            d2 += np.multiply(dy, dy, out=t)
            np.less_equal(d2, interference_range2, out=hit)
            hit[srow] = False
            rows = hit.nonzero()[0]
            return FanOut(
                sx,
                sy,
                rows.tolist(),
                dx[rows].tolist(),
                dy[rows].tolist(),
                (d2[rows] <= radio_range2).tolist(),
            )
        window = (np.abs(self._col[:n] - qcol) <= reach) & (
            np.abs(self._row[:n] - qrow) <= reach
        )
        cand = np.flatnonzero(window)
        dx = x[cand] - sx
        dy = y[cand] - sy
        d2 = dx * dx + dy * dy
        hit = (d2 <= interference_range2) & (cand != srow)
        return FanOut(
            sx,
            sy,
            cand[hit].tolist(),
            dx[hit].tolist(),
            dy[hit].tolist(),
            (d2[hit] <= radio_range2).tolist(),
        )

    def radio_at(self, row: int) -> "PhyRadio":
        """The radio registered at ``row`` (registration order)."""
        return self._radios[row]

    def stats(self) -> Dict[str, int]:
        """Index telemetry (sizes and rebin/refresh/cache counters)."""
        n = self._legs.size
        cells = 0
        if n:
            packed = self._col[:n].astype(np.int64) << 32 | (
                self._row[:n].astype(np.int64) & 0xFFFFFFFF
            )
            cells = int(np.unique(packed).size)
        return {
            "radios": n,
            "cells": cells,
            "rebins": self.rebins,
            "refreshes": self.refreshes,
            "cache_hits": self.cache_hits,
        }
