"""Vectorized batch kernels for the simulation hot core.

Pure-Python discrete-event simulation pays an interpreter round trip per
node per event; at 150 nodes a single broadcast frame touches every
radio twice (impinge start/end), so leg interpolation and distance
classification dominate wall-clock.  This module provides numpy-backed
*batch* versions of exactly those kernels:

* :class:`LegArrays` — all tracked nodes' current motion legs as a
  structure of arrays (origin, target, depart/arrive times), advanced
  wholesale per mobility epoch;
* :func:`batch_position_at` — every node's position at one instant in a
  handful of ufunc calls;
* :func:`batch_cells` / :func:`batch_cell_margins` — grid binning and
  nearest-cell-edge margins for the spatial index's horizon sweep.

Bit-identity contract
---------------------
Every kernel replicates the scalar formulas of
:meth:`repro.net.mobility.WaypointLeg.position_at` and the grid binning
(``math.floor(x / s)``, nearest-edge margin) *operation for operation*:
numpy float64 element-wise arithmetic performs the same IEEE-754 double
operations in the same order (ufuncs are compiled without fused
multiply-add or fast-math reassociation), so batch results are
**bitwise equal** to the scalar path — not merely close.  Euclidean
distances stay scalar (``math.hypot`` on batch-derived deltas, in the
medium), because ``numpy.hypot`` and CPython's ``math.hypot`` do not
promise identical rounding.  ``tests/test_vecops.py`` enforces the contract with
randomized scalar-vs-batch sweeps across pause boundaries and
zero-length legs.

numpy is a hard dependency of the package; there is no scalar fallback
for these kernels, only the brute reference scan in
:mod:`repro.net.medium`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.mobility import WaypointLeg

__all__ = [
    "LegArrays",
    "batch_position_at",
    "batch_cells",
    "batch_cell_margins",
]

_INF = math.inf


class LegArrays:
    """Structure-of-arrays store for every tracked node's current leg.

    One row per node, appended in registration order (the row index *is*
    the registration order, which downstream consumers rely on for the
    exact candidate-order contract).  A static node is stored as a
    zero-length, already-arrived leg at its position, so one batch
    kernel covers the whole population.

    Rows are rewritten in place by :meth:`set_leg` / :meth:`set_fixed`
    whenever a leg rolls or a teleport lands; capacity doubles amortized.
    """

    __slots__ = (
        "ox", "oy", "gx", "gy", "depart", "arrive", "size",
        "span", "dgx", "dgy", "has_span", "_frac", "_tmp", "_arrived", "_waiting",
        "min_arrive", "max_depart", "_vn", "_views",
    )

    def __init__(self, capacity: int = 16) -> None:
        capacity = max(1, capacity)
        self.ox = np.zeros(capacity)
        self.oy = np.zeros(capacity)
        self.gx = np.zeros(capacity)
        self.gy = np.zeros(capacity)
        self.depart = np.zeros(capacity)
        self.arrive = np.zeros(capacity)
        #: Row-constant derived values, written alongside the row so the
        #: interpolation kernel never recomputes them: ``arrive - depart``,
        #: ``target - origin`` and the positive-span mask.  The scalar
        #: subtractions here produce the identical doubles the old
        #: per-call elementwise subtractions did.
        self.span = np.zeros(capacity)
        self.dgx = np.zeros(capacity)
        self.dgy = np.zeros(capacity)
        self.has_span = np.zeros(capacity, dtype=bool)
        #: Kernel scratch.  ``_frac`` lanes are only ever written where
        #: ``has_span`` holds, so masked-out lanes stay at their initial
        #: (finite) 0.0 and no inf/nan ever reaches a multiply.
        self._frac = np.zeros(capacity)
        self._tmp = np.empty(capacity)
        self._arrived = np.empty(capacity, dtype=bool)
        self._waiting = np.empty(capacity, dtype=bool)
        #: Scalar boundary guards, only ever *tightened* by row writes
        #: (stale-conservative: a too-early ``min_arrive`` just runs the
        #: boundary ufuncs needlessly, never skips a needed one).  While
        #: ``min_arrive > t > max_depart`` every lane is mid-flight and
        #: the kernel can skip both boundary sweeps entirely.
        self.min_arrive = _INF
        self.max_depart = -_INF
        #: Cached per-size slice views of the row arrays (rebuilt when
        #: ``size`` changes or the arrays are regrown).
        self._vn = -1
        self._views: Optional[tuple] = None
        self.size = 0

    def _grow(self) -> None:
        new_cap = max(1, 2 * len(self.ox))
        for name in (
            "ox", "oy", "gx", "gy", "depart", "arrive", "span", "dgx", "dgy",
        ):
            old = getattr(self, name)
            fresh = np.zeros(new_cap)
            fresh[: len(old)] = old
            setattr(self, name, fresh)
        old_mask = self.has_span
        self.has_span = np.zeros(new_cap, dtype=bool)
        self.has_span[: len(old_mask)] = old_mask
        old_frac = self._frac
        self._frac = np.zeros(new_cap)
        self._frac[: len(old_frac)] = old_frac
        self._tmp = np.empty(new_cap)
        self._arrived = np.empty(new_cap, dtype=bool)
        self._waiting = np.empty(new_cap, dtype=bool)
        self._vn = -1  # views point at the old arrays

    def _refresh_views(self) -> tuple:
        n = self.size
        self._views = (
            self.ox[:n], self.oy[:n], self.gx[:n], self.gy[:n],
            self.depart[:n], self.arrive[:n], self.span[:n],
            self.has_span[:n], self.dgx[:n], self.dgy[:n],
            self._tmp[:n], self._frac[:n], self._arrived[:n],
            self._waiting[:n],
        )
        self._vn = n
        return self._views

    def append_row(self) -> int:
        """Reserve the next row (caller fills it); returns its index."""
        if self.size == len(self.ox):
            self._grow()
        self.size += 1
        return self.size - 1

    def set_leg(self, row: int, leg: "WaypointLeg") -> None:
        """Write one :class:`~repro.net.mobility.WaypointLeg` into ``row``."""
        origin, target = leg.origin, leg.target
        self.ox[row] = origin.x
        self.oy[row] = origin.y
        self.gx[row] = target.x
        self.gy[row] = target.y
        self.depart[row] = leg.depart_time
        self.arrive[row] = leg.arrive_time
        span = leg.arrive_time - leg.depart_time
        self.span[row] = span
        self.dgx[row] = target.x - origin.x
        self.dgy[row] = target.y - origin.y
        self.has_span[row] = span > 0.0
        self._frac[row] = 0.0  # keep masked-out lanes finite
        if leg.arrive_time < self.min_arrive:
            self.min_arrive = leg.arrive_time
        if leg.depart_time > self.max_depart:
            self.max_depart = leg.depart_time

    def set_fixed(self, row: int, x: float, y: float) -> None:
        """Write a motionless node: a zero-length leg pinned at ``(x, y)``.

        ``depart = +inf`` / ``arrive = -inf`` makes *both* boundary
        branches select the (identical) pinned coordinates at any ``t``,
        while keeping the span finite-free of NaN (``-inf - +inf = -inf``,
        not ``inf - inf``) so the batch kernel never warns.
        """
        self.ox[row] = x
        self.oy[row] = y
        self.gx[row] = x
        self.gy[row] = y
        self.depart[row] = _INF
        self.arrive[row] = -_INF
        self.span[row] = -_INF  # -inf - +inf: finite-free of NaN
        self.dgx[row] = 0.0
        self.dgy[row] = 0.0
        self.has_span[row] = False
        self._frac[row] = 0.0
        #: A pinned row is permanently "arrived" and "waiting", so both
        #: boundary sweeps must always run while any fixed row exists.
        self.min_arrive = -_INF
        self.max_depart = _INF


def batch_position_at(
    legs: LegArrays, time: float, out_x: Optional["np.ndarray"] = None,
    out_y: Optional["np.ndarray"] = None,
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Positions of every leg at ``time``; bitwise equals the scalar path.

    Replicates :meth:`WaypointLeg.position_at` lane-by-lane::

        t <= depart           -> origin
        t >= arrive           -> target
        else                  -> origin + (target - origin) * fraction
        fraction = (t - depart) / (arrive - depart)

    ``out_x``/``out_y`` are optional preallocated buffers (>= ``size``);
    passing them makes the kernel allocation-free on the hot path.
    """
    n = legs.size
    views = legs._views if legs._vn == n else legs._refresh_views()
    (ox, oy, gx, gy, depart, arrive, span, has_span, dgx, dgy,
     tmp, fraction, arrived, waiting) = views
    # Unselected lanes must not raise (and must stay finite): divide only
    # where the leg actually has extent; masked-out ``_frac`` lanes keep
    # their 0.0 and take the origin/target branches below.
    np.subtract(time, depart, out=tmp)
    np.divide(tmp, span, out=fraction, where=has_span)
    x = out_x[:n] if out_x is not None else np.empty(n)
    y = out_y[:n] if out_y is not None else np.empty(n)
    # Interpolated value first, then overwrite the boundary branches in
    # the same precedence order as the scalar code (depart wins last so
    # ``t <= depart`` takes priority exactly like the early return).
    np.multiply(dgx, fraction, out=x)
    x += ox
    np.multiply(dgy, fraction, out=y)
    y += oy
    # Boundary sweeps only run when some lane can actually be at a
    # boundary (scalar guards); mid-flight populations skip them.
    if time >= legs.min_arrive:
        np.greater_equal(time, arrive, out=arrived)
        if arrived.any():
            np.copyto(x, gx, where=arrived)
            np.copyto(y, gy, where=arrived)
    if time <= legs.max_depart:
        np.less_equal(time, depart, out=waiting)
        if waiting.any():
            np.copyto(x, ox, where=waiting)
            np.copyto(y, oy, where=waiting)
    return x, y


def batch_cells(
    x: "np.ndarray", y: "np.ndarray", cell_size: float
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Grid cells ``(floor(x/s), floor(y/s))`` as int32 coordinate arrays.

    ``x / s`` then ``floor`` — the same two operations as the scalar
    ``math.floor(pos.x / s)``, so the binning agrees exactly (int32 is
    ample: cells are interference-range sized, so ±2^31 cells spans
    ~10^12 m of arena).
    """
    col = np.floor(x / cell_size).astype(np.int32)
    row = np.floor(y / cell_size).astype(np.int32)
    return col, row


def batch_cell_margins(
    x: "np.ndarray",
    y: "np.ndarray",
    col: "np.ndarray",
    row: "np.ndarray",
    cell_size: float,
) -> "np.ndarray":
    """Distance from each point to the nearest edge of its own cell.

    The spatial index's validity horizon is ``margin / speed_bound``:
    a node strictly inside its cell cannot cross a boundary sooner.
    Replicates the scalar 4-way ``min`` (min is exact — order-free).
    """
    s = cell_size
    left = x - col * s
    right = (col + 1) * s - x
    bottom = y - row * s
    top = (row + 1) * s - y
    return np.minimum(np.minimum(left, right), np.minimum(bottom, top))
