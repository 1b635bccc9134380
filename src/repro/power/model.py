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

from ..fabric.device import Device
from ..fabric.interconnect import RoutingGraph
from ..netlist.design import Design

__all__ = ["PowerReport", "estimate_power"]

#: Static leakage per kilo-LUT of device capacity, in watts.
STATIC_W_PER_KLUT = 0.004
#: Interconnect switching power per routed tile per MHz, in nanowatts.
WIRE_NW_PER_TILE_MHZ = 0.9
#: Default signal activity factor.
DEFAULT_TOGGLE = 0.25


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
    toggle: float = DEFAULT_TOGGLE,
) -> PowerReport:
    """Estimate power of *design* clocked at *fmax_mhz* on *device*."""
    if fmax_mhz <= 0:
        raise ValueError(f"fmax must be positive, got {fmax_mhz}")
    static = STATIC_W_PER_KLUT * device.resource_totals["LUT"] / 1000.0

    logic_nw = sum(
        cell.spec.dyn_power_nw_mhz * fmax_mhz * toggle for cell in design.cells.values()
    )

    routes: list[list[int]] = []
    widths: list[int] = []
    est_tiles = 0.0
    for net in design.nets.values():
        if net.is_clock:
            continue
        for i, route in enumerate(net.routes):
            if route is not None and graph is not None:
                routes.append(route)
                widths.append(net.width)
            else:
                src = design.cells[net.driver].placement if net.driver else None
                sink = net.sinks[i] if i < len(net.sinks) else None
                dst = design.cells[sink].placement if sink in design.cells else None
                if src and dst:
                    est_tiles += (abs(src[0] - dst[0]) + abs(src[1] - dst[1])) * net.width
    routed_tiles = 0
    if routes:
        tiles, _crossings = graph.path_metrics_batch(routes)
        routed_tiles = int(tiles @ np.asarray(widths, dtype=np.int64))
    signal_nw = WIRE_NW_PER_TILE_MHZ * (routed_tiles + est_tiles) * fmax_mhz * toggle

    return PowerReport(
        static_w=static,
        logic_w=logic_nw * 1e-9,
        signal_w=signal_nw * 1e-9,
    )
