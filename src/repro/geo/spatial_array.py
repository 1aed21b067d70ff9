"""Whole-population fan-out over mobile radios, backed by numpy arrays.

:class:`ArraySpatialIndex` classifies the medium's per-frame fan-out in
one numpy sweep over every tracked radio: positions, receiver-minus-sender
deltas, squared distances and the interference/radio-range verdicts.  It
is **outcome-invisible**: it returns the same radios, in the same
(registration) order, with bitwise the same floats, as the scalar scan
the medium keeps as its proof oracle (``reference=True``); the test
suite asserts exactly that on every transmission.

Why there is no grid
--------------------
A uniform grid cannot make this sweep cheaper.  Cutting a cell window
around the sender is itself a vectorized pass over every row's cell
coordinates, so it costs about as much as the distance pass it would
shorten; the exact ``d2 <= interference_range2`` filter must still run
on the rows it keeps; and keeping the cells current as radios move
costs a re-bin sweep before every fan-out.  So the index keeps no cells.

Representation
--------------
The whole population lives in a :class:`~repro.geo.vecops.LegArrays`
structure-of-arrays of every node's current motion leg, so the
per-query work collapses into a handful of ufunc sweeps:

* **positions**: one :func:`~repro.geo.vecops.batch_position_at` call
  interpolates every leg at once (cached per distinct query time);
* **fan-out**: :meth:`classify_fanout` subtracts the sender's position,
  squares and sums the deltas with the same ``dx*dx + dy*dy`` operations
  as :meth:`Position.distance2_to`, and cuts the interference and radio
  ranges; ``nonzero`` yields rows in ascending order, which *is*
  registration order.  The true distances are left to the caller's
  scalar ``math.hypot`` on the batch-derived deltas, so every comparison
  and every loss-model draw downstream sees **bitwise identical** floats
  to the scalar scan.

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
  batch kernel;
* **fixed** rows (``max_speed == 0``) are written once and refreshed
  only when the model's ``subscribe`` callback reports a teleport;
* **scalar** rows (anything else) are re-read via scalar
  ``position_at`` on every recompute — degrading gracefully toward the
  brute-force cost for just those rows, never toward wrong answers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.geo.vecops import LegArrays, batch_position_at

# Nothing here calls these two kernels; the e2e benchmark's per-layer
# ledger still wraps both by name on this module.
from repro.geo.vecops import batch_cell_margins, batch_cells  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.phy import PhyRadio

__all__ = ["ArraySpatialIndex", "FanOut"]

_INF = math.inf


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
    """Batched positions and fan-out over every tracked radio.

    The surface is ``add`` / ``invalidate_all`` / ``stationary_stamp`` /
    ``stats``, plus the batched queries (:meth:`positions_at`,
    :meth:`classify_fanout`) the medium's transmit path uses.
    """

    def __init__(self) -> None:
        self._legs = LegArrays()
        cap = len(self._legs.ox)
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
        self._scalar_rows: List[int] = []  # re-read via position_at every query
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
        #: Scalar hot-path guard: the earliest instant any leg can have
        #: rolled.  Conservative (never later than the true instant), so a
        #: stale value only costs an extra sweep, never skips a needed one.
        self._next_roll = -_INF
        #: Stationary window (see :meth:`stationary_stamp`): the current
        #: window's stamp and last instant, and the earliest instant a new
        #: window can open (scalar retry guard for mobile populations).
        self._still_stamp = 0
        self._still_until = -_INF
        self._still_retry = -_INF

    # ------------------------------------------------------------ mutation
    def add(self, radio: "PhyRadio", now: float) -> None:
        """Start tracking ``radio`` at time ``now``."""
        mobility = radio.mobility
        row = self._legs.append_row()
        if row >= len(self._is_leg):
            self._grow_side_arrays()
        self._radios.append(radio)
        self._mobs.append(mobility)
        self._seen_legs.append(None)
        self._row_by_node[radio.node_id] = row

        leg = getattr(mobility, "current_leg", None)
        if leg is not None:
            self._is_leg[row] = True
            self._seen_legs[row] = leg
            self._legs.set_leg(row, leg)
            if leg.arrive_time < self._next_roll:
                self._next_roll = leg.arrive_time
        else:
            self._is_leg[row] = False
            pos = mobility.position_at(now)
            self._legs.set_fixed(row, pos.x, pos.y)
            if getattr(mobility, "max_speed", None) != 0.0:
                self._scalar_rows.append(row)  # may move unannounced
        self._end_stationary()
        # Protocol subscribe: teleports must re-position the row.
        mobility.subscribe(lambda r=row: self._on_teleport(r))
        self._epoch += 1
        self._pos_time = None  # new row: any cached position set is short

    def _grow_side_arrays(self) -> None:
        cap = len(self._legs.ox)  # LegArrays just doubled
        is_leg = np.zeros(cap, dtype=bool)
        is_leg[: len(self._is_leg)] = self._is_leg
        self._is_leg = is_leg
        self._pos_x = np.empty(cap)
        self._pos_y = np.empty(cap)
        self._fan_dx = np.empty(cap)
        self._fan_dy = np.empty(cap)
        self._fan_d2 = np.empty(cap)
        self._fan_t = np.empty(cap)
        self._fan_hit = np.empty(cap, dtype=bool)
        self._fan_n = -1  # views point at the old arrays

    def invalidate_all(self) -> None:
        """Close the stationary window so stamped derived caches (the
        medium's fan-out memo) rebuild.  Liveness faults change radio
        liveness, never geometry, so positions are untouched."""
        self._end_stationary()

    def _on_teleport(self, row: int) -> None:
        """Subscribe callback: a discontinuity landed on ``row``."""
        self._epoch += 1  # cached batch positions are stale
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
        close the window.  Scalar rows can move unannounced, so a
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

        Cached per distinct ``(now, epoch)``; scalar rows disable the
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
        """Bring leg/fixed/scalar rows up to date before interpolating."""
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

    # ------------------------------------------------------------- queries
    def classify_fanout(
        self,
        sender_node_id: int,
        now: float,
        radio_range2: float,
        interference_range2: float,
    ) -> FanOut:
        """The medium's transmit hot path, fully batched.

        One position kernel + one squared-distance sweep classify the
        whole fan-out.  Every float that escapes (sender position,
        deltas) is bitwise equal to what the scalar scan computes
        radio-by-radio.
        """
        x, y = self.positions_at(now)
        srow = self._row_by_node[sender_node_id]
        sx = float(x[srow])
        sy = float(y[srow])
        n = self._legs.size
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

    def radio_at(self, row: int) -> "PhyRadio":
        """The radio registered at ``row`` (registration order)."""
        return self._radios[row]

    def stats(self) -> Dict[str, int]:
        """Index telemetry.  ``rebins`` is always 0: the index keeps no
        cells; the key stays for readers that still record it."""
        return {"radios": self._legs.size, "rebins": 0}
