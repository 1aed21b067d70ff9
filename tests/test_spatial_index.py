"""Unit tests for the grid machinery of :mod:`repro.geo.spatial_array`.

The index's one contract: for any query, filtering its candidate list by
true distance yields the same radios in the same registration order as
the brute-force scan.  These tests exercise the machinery behind it —
lazy rebucketing horizons, teleport invalidation, the unbounded-model
fallback, and the version-stamped gather cache.  The mobility doubles
here expose no ``current_leg``, so they run through the index's scalar
rows.
"""

from __future__ import annotations

import random

import pytest

from repro.geo.spatial_array import ArraySpatialIndex
from repro.geo.vec import Position
from repro.net.mobility import StaticMobility


class _LinearMobility:
    """Straight-line motion with a declared speed bound (RWP stand-in)."""

    def __init__(self, start: Position, vx: float, vy: float, max_speed: float) -> None:
        self.start = start
        self.vx = vx
        self.vy = vy
        self.max_speed = max_speed

    def position_at(self, time: float) -> Position:
        return Position(self.start.x + self.vx * time, self.start.y + self.vy * time)

    def subscribe(self, callback) -> None:
        """Protocol no-op: continuous trajectory, nothing to notify."""


class _OpaqueMobility:
    """No speed bound (no ``max_speed``): the unknowable case."""

    def __init__(self, position: Position) -> None:
        self._position = position

    def position_at(self, time: float) -> Position:
        return self._position

    def subscribe(self, callback) -> None:
        """Protocol no-op: this test mutates ``_position`` silently on
        purpose, exercising the rebin-every-query fallback."""


class _FakeRadio:
    """The only attributes the index reads: ``mobility`` (and identity)."""

    def __init__(self, node_id: int, mobility) -> None:
        self.node_id = node_id
        self.mobility = mobility


def _brute(radios, center: Position, rng: float, now: float):
    limit = rng * rng
    return [
        r for r in radios
        if r.mobility.position_at(now).distance2_to(center) <= limit
    ]


def _filtered(index: ArraySpatialIndex, radios, center: Position, rng: float, now: float):
    limit = rng * rng
    return [
        r for r in index.candidates_within(center, rng, now)
        if r.mobility.position_at(now).distance2_to(center) <= limit
    ]


# ------------------------------------------------------------ construction
def test_cell_size_must_be_positive():
    with pytest.raises(ValueError):
        ArraySpatialIndex(cell_size=0.0)


# --------------------------------------------------------------- exactness
def test_static_candidates_match_brute_force_filtered():
    rng = random.Random(7)
    index = ArraySpatialIndex(cell_size=250.0)
    radios = [
        _FakeRadio(i, StaticMobility(Position(rng.uniform(0, 1500), rng.uniform(0, 300))))
        for i in range(60)
    ]
    for radio in radios:
        index.add(radio, now=0.0)
    for _ in range(25):
        center = Position(rng.uniform(-100, 1600), rng.uniform(-100, 400))
        reach = rng.uniform(1.0, 600.0)
        assert _filtered(index, radios, center, reach, 0.0) == _brute(
            radios, center, reach, 0.0
        )


def test_candidates_preserve_registration_order():
    index = ArraySpatialIndex(cell_size=100.0)
    # Register out of positional order; candidates must come back in
    # registration order (the brute-force iteration order).
    positions = [Position(90.0, 0.0), Position(10.0, 0.0), Position(50.0, 0.0)]
    radios = [_FakeRadio(i, StaticMobility(p)) for i, p in enumerate(positions)]
    for radio in radios:
        index.add(radio, now=0.0)
    assert index.candidates_within(Position(50.0, 0.0), 100.0, 0.0) == radios


def test_zero_range_query_returns_cell_locals_only():
    index = ArraySpatialIndex(cell_size=100.0)
    near = _FakeRadio(0, StaticMobility(Position(10.0, 10.0)))
    far = _FakeRadio(1, StaticMobility(Position(950.0, 10.0)))
    index.add(near, 0.0)
    index.add(far, 0.0)
    candidates = index.candidates_within(Position(10.0, 10.0), 0.0, 0.0)
    assert near in candidates and far not in candidates


# ------------------------------------------------------- lazy rebucketing
def test_moving_radio_rebins_only_after_horizon():
    index = ArraySpatialIndex(cell_size=100.0)
    # Centered in its cell, 10 m/s: margin 50 m -> horizon t=5.
    mover = _FakeRadio(0, _LinearMobility(Position(50.0, 50.0), 10.0, 0.0, 10.0))
    index.add(mover, now=0.0)
    binned_once = index.rebins
    index.refresh(now=4.9)  # strictly before the horizon: no rebin
    assert index.rebins == binned_once
    index.refresh(now=5.0)  # horizon passed: rebin happens
    assert index.rebins == binned_once + 1


def test_moving_radio_found_after_cell_crossing():
    index = ArraySpatialIndex(cell_size=100.0)
    mover = _FakeRadio(0, _LinearMobility(Position(95.0, 50.0), 10.0, 0.0, 10.0))
    anchor = _FakeRadio(1, StaticMobility(Position(250.0, 50.0)))
    index.add(mover, now=0.0)
    index.add(anchor, now=0.0)
    # At t=10 the mover sits at x=195 (cell 1); a query around x=195 must
    # find it even though it was binned in cell 0 at t=0.
    center = Position(195.0, 50.0)
    assert _filtered(index, [mover, anchor], center, 50.0, 10.0) == [mover]


def test_static_radios_never_rebin():
    index = ArraySpatialIndex(cell_size=100.0)
    radios = [_FakeRadio(i, StaticMobility(Position(i * 30.0, 0.0))) for i in range(5)]
    for radio in radios:
        index.add(radio, 0.0)
    after_add = index.rebins
    for t in range(1, 50):
        index.candidates_within(Position(0.0, 0.0), 120.0, float(t))
    assert index.rebins == after_add


def test_boundary_radio_does_not_livelock_refresh():
    """A radio exactly on a cell edge has margin 0 (horizon == now); the
    drain-then-rebin refresh must terminate and stay correct."""
    index = ArraySpatialIndex(cell_size=100.0)
    edge = _FakeRadio(0, _LinearMobility(Position(100.0, 50.0), 1.0, 0.0, 1.0))
    index.add(edge, now=0.0)
    for t in (0.0, 0.5, 1.0):
        assert _filtered(index, [edge], Position(100.0, 50.0), 10.0, t) == [edge]


# --------------------------------------------------------------- teleports
def test_teleport_invalidates_immediately():
    index = ArraySpatialIndex(cell_size=100.0)
    mobility = StaticMobility(Position(50.0, 50.0))
    radio = _FakeRadio(0, mobility)
    index.add(radio, 0.0)
    mobility.move_to(Position(850.0, 50.0))
    old_site = _filtered(index, [radio], Position(50.0, 50.0), 60.0, 1.0)
    new_site = _filtered(index, [radio], Position(850.0, 50.0), 60.0, 1.0)
    assert old_site == []
    assert new_site == [radio]


def test_same_cell_teleport_bumps_version():
    """Teleports that stay inside one cell still change positions, so
    position-derived caches keyed on the version must be dropped."""
    index = ArraySpatialIndex(cell_size=1000.0)
    mobility = StaticMobility(Position(100.0, 100.0))
    index.add(_FakeRadio(0, mobility), 0.0)
    before = index.version
    mobility.move_to(Position(200.0, 200.0))  # same 1000 m cell
    assert index.version > before


# ------------------------------------------------------ unbounded fallback
def test_unbounded_model_rebins_every_refresh_and_stays_correct():
    index = ArraySpatialIndex(cell_size=100.0)
    opaque = _OpaqueMobility(Position(50.0, 50.0))
    radio = _FakeRadio(0, opaque)
    index.add(radio, 0.0)
    binned_once = index.rebins
    index.refresh(1.0)
    index.refresh(2.0)
    assert index.rebins == binned_once + 2  # once per refresh, no horizon
    # Mutate the position behind the index's back: the per-query rebin
    # must still produce the right answer.
    opaque._position = Position(650.0, 50.0)
    assert _filtered(index, [radio], Position(650.0, 50.0), 60.0, 3.0) == [radio]
    assert _filtered(index, [radio], Position(50.0, 50.0), 60.0, 3.0) == []


# ------------------------------------------------------------ gather cache
def test_repeated_static_query_hits_cache():
    index = ArraySpatialIndex(cell_size=100.0)
    for i in range(4):
        index.add(_FakeRadio(i, StaticMobility(Position(i * 40.0, 0.0))), 0.0)
    center = Position(50.0, 0.0)
    first = index.candidates_within(center, 100.0, 0.0)
    assert index.cache_hits == 0
    second = index.candidates_within(center, 100.0, 1.0)
    assert index.cache_hits == 1
    assert second == first


def test_cache_invalidated_by_membership_change():
    index = ArraySpatialIndex(cell_size=100.0)
    mobility = _LinearMobility(Position(50.0, 50.0), 100.0, 0.0, 100.0)
    mover = _FakeRadio(0, mobility)
    index.add(mover, 0.0)
    center = Position(50.0, 50.0)
    assert index.candidates_within(center, 40.0, 0.0) == [mover]
    # t=2: the mover crossed into x=250's cell; the cached gather for the
    # original cell must not be replayed.
    assert index.candidates_within(center, 40.0, 2.0) == []


def test_stats_shape():
    index = ArraySpatialIndex(cell_size=100.0)
    index.add(_FakeRadio(0, StaticMobility(Position(0.0, 0.0))), 0.0)
    index.candidates_within(Position(0.0, 0.0), 50.0, 0.0)
    stats = index.stats()
    assert stats["radios"] == 1
    assert stats["cells"] == 1
    assert stats["rebins"] >= 1
    assert stats["refreshes"] == 1
    assert "cache_hits" in stats
