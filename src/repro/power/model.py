"""Power estimation.

Utilization/toggle-based model in the spirit of vendor report_power:
static power scales with device size; dynamic power sums per-cell
switching energy (library ``dyn_power_nw_mhz`` at an activity factor)
plus interconnect power proportional to total routed wire length.  The
paper reports that pre-implemented networks consume less power because
Vivado inserts extra BRAM and logic when compiling the larger monolithic
design — here that effect appears through the smaller routed wirelength
and tighter resource usage of the stitched design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import sum_left_to_right
from ..fabric.device import Device
from ..fabric.interconnect import RoutingGraph
from ..netlist.design import Design
from ..netlist.library import cell_type

__all__ = ["PowerReport", "estimate_power"]

#: Static leakage per kilo-LUT of device capacity, in watts.
STATIC_W_PER_KLUT = 0.004
#: Interconnect switching power per routed tile per MHz, in nanowatts.
WIRE_NW_PER_TILE_MHZ = 0.9
#: Signal activity factor.
TOGGLE = 0.25


@dataclass(frozen=True)
class PowerReport:
    """Estimated power breakdown in watts."""

    static_w: float
    logic_w: float
    signal_w: float

    @property
    def dynamic_w(self) -> float:
        return self.logic_w + self.signal_w

    @property
    def total_w(self) -> float:
        return self.static_w + self.dynamic_w

    def summary(self) -> str:
        return (
            f"total {self.total_w:.2f} W "
            f"(static {self.static_w:.2f}, logic {self.logic_w:.2f}, "
            f"signal {self.signal_w:.2f})"
        )


def estimate_power(
    design: Design,
    device: Device,
    fmax_mhz: float,
    graph: RoutingGraph | None = None,
) -> PowerReport:
    """Estimate power of *design* clocked at *fmax_mhz* on *device*."""
    if fmax_mhz <= 0:
        raise ValueError(f"fmax must be positive, got {fmax_mhz}")
    static = STATIC_W_PER_KLUT * device.resource_totals["LUT"] / 1000.0

    # Per-cell switching power, added in cell order, left to right (a
    # float sum: the order is part of the result).  A placed block
    # contributes its column of type codes; nothing is built to read a
    # type off.
    per_cell: list[np.ndarray] = []
    for part in design.cell_parts():
        if isinstance(part, dict):
            ctypes = [cell.ctype for cell in part.values()]
            table = dict.fromkeys(ctypes)
            per_type = {t: cell_type(t).dyn_power_nw_mhz * fmax_mhz * TOGGLE for t in table}
            per_cell.append(np.array([per_type[t] for t in ctypes], dtype=np.float64))
        else:
            kind, table = part.kinds()
            per_type = np.array(
                [cell_type(t).dyn_power_nw_mhz * fmax_mhz * TOGGLE for t in table]
            )
            per_cell.append(per_type[kind])
    logic_nw = sum_left_to_right(np.concatenate(per_cell)) if per_cell else 0

    if graph is None and design.blocks:
        design.nets  # no routes to measure without a graph: estimate from the objects
    routes: list[list[int]] = []
    widths: list[int] = []
    est_tiles = 0.0
    routed_tiles = 0
    for part in design.net_parts():
        if not isinstance(part, dict):
            routed_tiles += part.routed_tiles(graph)   # every block connection is routed
            continue
        for net in part.values():
            if net.is_clock:
                continue
            for i, route in enumerate(net.routes):
                if route is not None and graph is not None:
                    routes.append(route)
                    widths.append(net.width)
                else:
                    src = design.placement_of(net.driver) if net.driver else None
                    try:
                        dst = design.placement_of(net.sinks[i])
                    except (IndexError, KeyError):
                        dst = None
                    if src and dst:
                        est_tiles += (abs(src[0] - dst[0]) + abs(src[1] - dst[1])) * net.width
    if routes:
        tiles, _crossings = graph.path_metrics_batch(routes)
        routed_tiles += int(tiles @ np.asarray(widths, dtype=np.int64))
    signal_nw = WIRE_NW_PER_TILE_MHZ * (routed_tiles + est_tiles) * fmax_mhz * TOGGLE

    return PowerReport(
        static_w=static,
        logic_w=logic_nw * 1e-9,
        signal_w=signal_nw * 1e-9,
    )
