"""Bitwise scalar-vs-batch equivalence for the vectorized kernels.

The array index is only admissible because every float it produces is
**bit-identical** to the scalar path — not merely close.  These tests
enforce that with randomized sweeps: random legs, query times planted
exactly on pause boundaries, zero-length legs, and the grid kernels,
all compared bit-for-bit (``struct.pack`` of the
doubles, so ``-0.0 != 0.0`` and NaNs would fail loudly).
"""

from __future__ import annotations

import math
import random
import struct

import pytest

from repro.geo import vecops
from repro.geo.vec import Position
from repro.net.mobility import WaypointLeg

def _bits(value: float) -> bytes:
    """The IEEE-754 bit pattern — the equality the contract promises."""
    return struct.pack("<d", value)


def _random_leg(rng: random.Random) -> WaypointLeg:
    origin = Position(rng.uniform(-1500.0, 1500.0), rng.uniform(-300.0, 300.0))
    if rng.random() < 0.15:  # zero-length leg: arrive == depart
        target = origin
    else:
        target = Position(rng.uniform(-1500.0, 1500.0), rng.uniform(-300.0, 300.0))
    speed = 0.0 if rng.random() < 0.1 else rng.uniform(0.5, 20.0)
    depart = rng.uniform(0.0, 100.0)
    return WaypointLeg(origin, target, speed, depart)


def _query_times(rng: random.Random, legs: list[WaypointLeg]) -> list[float]:
    """Uniform draws plus the exact boundary instants of every leg."""
    times = [rng.uniform(-10.0, 400.0) for _ in range(12)]
    for leg in legs:
        times.extend(
            [
                leg.depart_time,  # pause boundary, exact
                leg.arrive_time,  # arrival boundary, exact
                math.nextafter(leg.depart_time, math.inf),
                math.nextafter(leg.arrive_time, -math.inf),
            ]
        )
    return [t for t in times if math.isfinite(t)]


@pytest.mark.parametrize("seed", [7, 19, 101])
def test_batch_position_bitwise_equals_scalar(seed):
    rng = random.Random(seed)
    legs = [_random_leg(rng) for _ in range(40)]
    arrays = vecops.LegArrays()
    for leg in legs:
        row = arrays.append_row()
        arrays.set_leg(row, leg)
    for t in _query_times(rng, legs):
        x, y = vecops.batch_position_at(arrays, t)
        for i, leg in enumerate(legs):
            ref = leg.position_at(t)
            assert _bits(float(x[i])) == _bits(ref.x), (i, t)
            assert _bits(float(y[i])) == _bits(ref.y), (i, t)


def test_fixed_rows_interpolate_without_nan():
    """set_fixed's depart/arrive sentinel must never produce a NaN lane
    (the inf - inf shape) for any query time."""
    arrays = vecops.LegArrays()
    arrays.set_fixed(arrays.append_row(), 12.5, -3.25)
    for t in (-1e9, -1.0, 0.0, 1.0, 1e9):
        x, y = vecops.batch_position_at(arrays, t)
        assert _bits(float(x[0])) == _bits(12.5)
        assert _bits(float(y[0])) == _bits(-3.25)


@pytest.mark.parametrize("seed", [11, 31])
def test_batch_cells_and_margins_match_scalar(seed):
    import numpy as np

    rng = random.Random(seed)
    cell = 550.0
    xs = np.array([rng.uniform(-2000.0, 2000.0) for _ in range(200)])
    ys = np.array([rng.uniform(-2000.0, 2000.0) for _ in range(200)])
    col, row = vecops.batch_cells(xs, ys, cell)
    assert col.dtype == np.int32 and row.dtype == np.int32
    margins = vecops.batch_cell_margins(xs, ys, col, row, cell)
    for i in range(len(xs)):
        px, py = float(xs[i]), float(ys[i])
        scol, srow = math.floor(px / cell), math.floor(py / cell)
        assert (int(col[i]), int(row[i])) == (scol, srow)
        ref = min(
            px - scol * cell,
            (scol + 1) * cell - px,
            py - srow * cell,
            (srow + 1) * cell - py,
        )
        assert _bits(float(margins[i])) == _bits(ref)


def test_leg_roll_continuity_is_bitwise():
    """At a roll instant the old leg's target and the new leg's origin
    are the same object, so stale rows stay bitwise correct."""
    a = Position(10.0, 20.0)
    b = Position(130.0, 80.0)
    c = Position(400.0, 40.0)
    first = WaypointLeg(a, b, 7.0, 0.0)
    second = WaypointLeg(first.target, c, 4.0, first.arrive_time)
    arrays = vecops.LegArrays()
    arrays.set_leg(arrays.append_row(), first)  # deliberately stale
    t = first.arrive_time
    x, y = vecops.batch_position_at(arrays, t)
    ref = second.position_at(t)
    assert _bits(float(x[0])) == _bits(ref.x)
    assert _bits(float(y[0])) == _bits(ref.y)


def test_legarrays_growth_preserves_rows():
    rng = random.Random(2)
    legs = [_random_leg(rng) for _ in range(50)]  # forces several _grow()s
    arrays = vecops.LegArrays(capacity=1)
    for leg in legs:
        arrays.set_leg(arrays.append_row(), leg)
    x, y = vecops.batch_position_at(arrays, 50.0)
    for i, leg in enumerate(legs):
        ref = leg.position_at(50.0)
        assert _bits(float(x[i])) == _bits(ref.x)
        assert _bits(float(y[i])) == _bits(ref.y)
