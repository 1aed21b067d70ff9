"""Tests for planarization and face-routing geometry."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.vec import Position
from repro.routing.planar import (
    crossing_point,
    gabriel_neighbors,
    right_hand_neighbor,
    rng_neighbors,
    segments_cross,
)

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
positions = st.builds(Position, coords, coords)


# ------------------------------------------------------------------ Gabriel
def test_gabriel_keeps_unwitnessed_edge():
    own = Position(0, 0)
    neighbors = [("a", Position(100, 0))]
    assert gabriel_neighbors(own, neighbors) == neighbors


def test_gabriel_removes_witnessed_edge():
    own = Position(0, 0)
    far = ("far", Position(100, 0))
    witness = ("w", Position(50, 1))  # inside the circle with diameter own-far
    kept = gabriel_neighbors(own, [far, witness])
    assert ("far", far[1]) not in kept
    assert ("w", witness[1]) in kept


def test_gabriel_witness_on_circle_kept():
    own = Position(0, 0)
    target = ("t", Position(100, 0))
    on_circle = ("c", Position(50, 50))  # exactly on the circle: not strict
    kept = gabriel_neighbors(own, [target, on_circle])
    assert ("t", target[1]) in kept


def test_rng_stricter_than_gabriel():
    """Every RNG edge is a Gabriel edge (RNG is a subgraph of GG)."""
    own = Position(0, 0)
    neighbors = [
        ("a", Position(100, 0)),
        ("b", Position(60, 40)),
        ("c", Position(-30, 70)),
        ("d", Position(90, -20)),
    ]
    gg = {k for k, _ in gabriel_neighbors(own, neighbors)}
    rng_set = {k for k, _ in rng_neighbors(own, neighbors)}
    assert rng_set <= gg


def test_rng_removes_lune_witnessed_edge():
    own = Position(0, 0)
    far = ("far", Position(100, 0))
    witness = ("w", Position(50, 10))
    kept = {k for k, _ in rng_neighbors(own, [far, witness])}
    assert "far" not in kept


# --------------------------------------------------------------- right hand
def test_right_hand_sweeps_counterclockwise():
    own = Position(0, 0)
    came_from = Position(-100, 0)  # reference pointing west
    candidates = [
        ("north", Position(0, 100)),
        ("east", Position(100, 0)),
        ("south", Position(0, -100)),
    ]
    # Counterclockwise from west: south (270deg from west ccw? sweep from pi):
    # angles: north=pi/2, east=0, south=-pi/2; deltas from pi (ccw): north=3pi/2,
    # east=pi, south=pi/2 -> south is first.
    chosen = right_hand_neighbor(own, came_from, candidates)
    assert chosen[0] == "south"


def test_right_hand_excludes_reference_direction_until_last():
    own = Position(0, 0)
    came_from = Position(-100, 0)
    candidates = [("back", Position(-50, 0)), ("north", Position(0, 100))]
    assert right_hand_neighbor(own, came_from, candidates)[0] == "north"


def test_right_hand_bounces_on_dangling_edge():
    """Sole neighbor = the node we came from: the rule must bounce back."""
    own = Position(0, 0)
    came_from = Position(-100, 0)
    candidates = [("back", Position(-100, 0))]
    assert right_hand_neighbor(own, came_from, candidates)[0] == "back"


def test_right_hand_empty():
    assert right_hand_neighbor(Position(0, 0), Position(1, 0), []) is None


# ---------------------------------------------------------------- crossings
def test_segments_cross_basic():
    assert segments_cross(
        Position(0, 0), Position(10, 10), Position(0, 10), Position(10, 0)
    )


def test_segments_parallel_do_not_cross():
    assert not segments_cross(
        Position(0, 0), Position(10, 0), Position(0, 1), Position(10, 1)
    )


def test_segments_touching_endpoint_not_proper():
    assert not segments_cross(
        Position(0, 0), Position(10, 0), Position(10, 0), Position(20, 10)
    )


def test_crossing_point_value():
    point = crossing_point(
        Position(0, 0), Position(10, 10), Position(0, 10), Position(10, 0)
    )
    assert point == Position(5, 5)


def test_crossing_point_none_when_disjoint():
    assert crossing_point(
        Position(0, 0), Position(1, 1), Position(5, 5), Position(6, 6)
    ) is None


@given(positions, positions, positions, positions)
@settings(max_examples=100)
def test_crossing_point_consistent_with_predicate(a, b, c, d):
    point = crossing_point(a, b, c, d)
    if segments_cross(a, b, c, d):
        assert point is not None


@given(st.lists(st.tuples(st.integers(0, 1000), positions), min_size=1, max_size=8, unique_by=lambda t: t[0]))
@settings(max_examples=50)
def test_gabriel_never_empty_when_neighbors_exist(items):
    """GG keeps at least the closest neighbor (it can never be witnessed)."""
    own = Position(0, 0)
    neighbors = [(str(k), p) for k, p in items if p.distance2_to(own) > 0]
    if not neighbors:
        return
    kept = gabriel_neighbors(own, neighbors)
    assert kept
