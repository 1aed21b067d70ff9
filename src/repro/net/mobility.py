"""Mobility models.

The paper's scenario uses **random waypoint** (RWP): each node picks a
uniform destination in the field, moves toward it at a uniform random
speed up to 20 m/s, pauses 60 s, and repeats.

Positions are computed *analytically*: a model stores only the current
leg (origin, destination, speed, start time) and interpolates on demand,
so mobility costs zero simulation events between waypoint changes except
one event per leg to roll the next waypoint.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Protocol

from repro.geo.region import Region
from repro.geo.vec import Position
from repro.sim.engine import Simulator

__all__ = ["MobilityModel", "StaticMobility", "RandomWaypointMobility", "WaypointLeg"]


class MobilityModel(Protocol):
    """Anything that can report a node position at a simulated time.

    ``subscribe`` is part of the protocol (not duck-typed): consumers
    that cache positions — the spatial index backends — register a
    callback and are notified on every *discontinuity* (teleport).
    Models whose trajectories are continuous between queries
    (:class:`RandomWaypointMobility`) simply never call back; their
    ``subscribe`` is a no-op registration, not an absence.
    """

    def position_at(self, time: float) -> Position:
        """Position of the node at ``time`` (monotone queries expected)."""
        ...

    def velocity_at(self, time: float) -> tuple[float, float]:
        """Velocity vector (m/s) at ``time`` — used by freshness-aware forwarding."""
        ...

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to run after every positional discontinuity."""
        ...


class StaticMobility:
    """A node that never moves (static topologies, unit tests).

    :meth:`move_to` teleports — a discontinuity no speed bound can cover —
    so consumers that cache positions (the medium's spatial index)
    register a callback via :meth:`subscribe` and are notified on every
    teleport.

    .. note::
       Teleporting a node far away is **not** failure injection: the
       node keeps beaconing and receiving from its new position, it
       merely leaves radio range.  Genuine crash/recover semantics (tx
       and rx stop, volatile state lost) live in
       :class:`repro.faults.FaultPlan` /
       :meth:`repro.net.node.Node.fail`.
    """

    #: Speed bound between notifications: a static node never drifts, so
    #: index consumers may bin it once and rely on :meth:`subscribe` for
    #: the (discontinuous) teleports.
    max_speed: float = 0.0

    def __init__(self, position: Position) -> None:
        self._position = position
        self._listeners: list[Callable[[], None]] = []

    def position_at(self, time: float) -> Position:
        return self._position

    def velocity_at(self, time: float) -> tuple[float, float]:
        return (0.0, 0.0)

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to run after every :meth:`move_to`."""
        self._listeners.append(callback)

    def move_to(self, position: Position) -> None:
        """Teleport (topology manipulation in tests).

        A same-position "teleport" is a no-op and notifies nobody —
        listeners invalidate caches, and there is nothing to invalidate.
        """
        if position == self._position:
            return
        self._position = position
        for callback in self._listeners:
            callback()


class WaypointLeg:
    """One segment of random-waypoint motion: pause, then straight travel."""

    __slots__ = ("origin", "target", "speed", "depart_time", "arrive_time")

    def __init__(
        self,
        origin: Position,
        target: Position,
        speed: float,
        depart_time: float,
    ) -> None:
        self.origin = origin
        self.target = target
        self.speed = speed
        self.depart_time = depart_time
        travel = origin.distance_to(target) / speed if speed > 0 else 0.0
        self.arrive_time = depart_time + travel

    def position_at(self, time: float) -> Position:
        if time <= self.depart_time:
            return self.origin
        if time >= self.arrive_time:
            return self.target
        fraction = (time - self.depart_time) / (self.arrive_time - self.depart_time)
        return self.origin.towards(self.target, fraction)

    def velocity_at(self, time: float) -> tuple[float, float]:
        if time <= self.depart_time or time >= self.arrive_time:
            return (0.0, 0.0)
        d = self.origin.distance_to(self.target)
        if d == 0:
            return (0.0, 0.0)
        return (
            (self.target.x - self.origin.x) / d * self.speed,
            (self.target.y - self.origin.y) / d * self.speed,
        )


class RandomWaypointMobility:
    """Random waypoint over a rectangular region.

    Parameters follow the paper: ``max_speed`` 20 m/s, ``pause_time`` 60 s.
    ``min_speed`` defaults to 1 m/s to avoid the well-known RWP speed-decay
    pathology (nodes stuck at near-zero speed forever).
    """

    def __init__(
        self,
        sim: Simulator,
        region: Region,
        rng: random.Random,
        start: Optional[Position] = None,
        min_speed: float = 1.0,
        max_speed: float = 20.0,
        pause_time: float = 60.0,
    ) -> None:
        # Chained so NaN fails too: a NaN or infinite speed makes every
        # leg zero-length and the roll chain livelocks at t = 0.
        if not 0 < min_speed <= max_speed < math.inf:
            raise ValueError("need 0 < min_speed <= max_speed < inf")
        if not 0 <= pause_time < math.inf:
            raise ValueError("pause_time must be non-negative and finite")
        self.sim = sim
        self.region = region
        self.rng = rng
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause_time = pause_time
        origin = start if start is not None else region.random_position(rng)
        self._leg = self._next_leg(origin, sim.now)
        self._schedule_roll()

    def _next_leg(self, origin: Position, now: float) -> WaypointLeg:
        target = self.region.random_position(self.rng)
        speed = self.rng.uniform(self.min_speed, self.max_speed)
        # "pause time 60s whenever it changes its direction": pause precedes travel
        return WaypointLeg(origin, target, speed, depart_time=now + self.pause_time)

    def _schedule_roll(self) -> None:
        delay = max(0.0, self._leg.arrive_time - self.sim.now)
        self.sim.schedule(delay, self._roll, name="rwp.roll")

    def _roll(self) -> None:
        self._leg = self._next_leg(self._leg.target, self.sim.now)
        self._schedule_roll()

    # ------------------------------------------------------------- queries
    def position_at(self, time: float) -> Position:
        return self._leg.position_at(time)

    def velocity_at(self, time: float) -> tuple[float, float]:
        return self._leg.velocity_at(time)

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Protocol no-op: RWP trajectories are continuous (legs chain
        origin := previous target), so there is never a discontinuity to
        notify — the speed bound alone keeps cached bins sound."""

    @property
    def current_leg(self) -> WaypointLeg:
        return self._leg
