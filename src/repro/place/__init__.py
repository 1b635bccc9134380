"""Placement: global force-directed, legalization, annealing refinement."""

from .annealer import AnnealStats, anneal
from .cost import congestion_map, congestion_overflow, net_hpwl, total_hpwl
from .global_place import global_place
from .legalize import legalize
from .placer import EFFORTS, Effort, PlacementResult, place_design
from .problem import NetColumns, NetPins, PlacementProblem

__all__ = [
    "AnnealStats",
    "anneal",
    "congestion_map",
    "congestion_overflow",
    "net_hpwl",
    "total_hpwl",
    "global_place",
    "legalize",
    "EFFORTS",
    "Effort",
    "PlacementResult",
    "place_design",
    "NetColumns",
    "NetPins",
    "PlacementProblem",
]
