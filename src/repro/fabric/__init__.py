"""FPGA fabric substrate: parts, device grid, pblocks, routing graph."""

from .device import Device, TileType, SITE_FOR_TILE, TILE_FOR_CELL
from .interconnect import RoutingGraph, SINGLE_COST, HEX_COST, HEX_REACH
from .parts import PartSpec, get_part, part_doc, PART_CATALOG, KU5P_LIKE, SMALL, TINY
from .pblock import PBlock, auto_pblock

__all__ = [
    "Device",
    "TileType",
    "SITE_FOR_TILE",
    "TILE_FOR_CELL",
    "RoutingGraph",
    "SINGLE_COST",
    "HEX_COST",
    "HEX_REACH",
    "PartSpec",
    "get_part",
    "part_doc",
    "PART_CATALOG",
    "KU5P_LIKE",
    "SMALL",
    "TINY",
    "PBlock",
    "auto_pblock",
]
