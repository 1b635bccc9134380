"""Routing: A* maze expansion under PathFinder negotiated congestion."""

from .maze import astar_route, direct_path
from .pathfinder import RouteResult, Router, RoutingError

__all__ = [
    "astar_route",
    "direct_path",
    "RouteResult",
    "Router",
    "RoutingError",
]
