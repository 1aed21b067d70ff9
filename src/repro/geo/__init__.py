"""Geometry: positions, rectangular regions, and grid partitioning."""

from repro.geo.grid import Cell, Grid
from repro.geo.region import Region
from repro.geo.vec import Position, bearing, centroid, distance, distance2, midpoint

__all__ = [
    "Cell",
    "Grid",
    "Region",
    "Position",
    "bearing",
    "centroid",
    "distance",
    "distance2",
    "midpoint",
]
