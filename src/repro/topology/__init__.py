"""Topology generation, connectivity graphs, gateways, and mobility."""

from repro.topology.gateway import select_gateways
from repro.topology.graph import connectivity_graph, ensure_connected_positions
from repro.topology.mobility import RandomWaypoint, StaticMobility
from repro.topology.placement import grid_positions, random_positions

__all__ = [
    "RandomWaypoint",
    "StaticMobility",
    "connectivity_graph",
    "ensure_connected_positions",
    "grid_positions",
    "random_positions",
    "select_gateways",
]
