"""Delay models: logic, wire and fabric-discontinuity delays.

Cell logic delays come from the library (scaled by ``comb_depth``);
net delays come from routed paths when available, otherwise from a
placement-based Manhattan estimate with a detour factor.  Crossing an
I/O column costs an extra penalty — the "fabric discontinuities such as
erratic tile patterns and I/O columns" the paper identifies as the main
QoR hazard when spreading components across the chip (Sec. V-E).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..fabric.device import Device
from ..fabric.interconnect import RoutingGraph
from ..netlist.cell import Cell
from ..netlist.design import Design
from ..netlist.net import Net

__all__ = ["DelayModel", "DEFAULT_DELAYS"]


@dataclass(frozen=True)
class DelayModel:
    """Constants converting topology into picoseconds.

    Calibrated so tightly-pblocked OOC components reach the ~450-650 MHz
    band of Table III, while monolithically-placed full networks land in
    the ~200-400 MHz band.
    """

    tile_delay_ps: float = 22.0       # per tile spanned by a routed wire
    far_tile_delay_ps: float = 11.0   # per tile beyond the long-line knee
    long_line_knee: float = 40.0      # tiles after which long lines kick in
    net_base_ps: float = 45.0         # switchbox entry/exit per net
    io_cross_ps: float = 380.0        # per I/O column crossed
    clock_overhead_ps: float = 150.0  # skew + jitter + uncertainty
    detour_factor: float = 1.25       # estimate inflation for unrouted nets
    unplaced_tiles: float = 3.0       # assumed span when placement unknown
    fanout_ps: float = 6.0            # loading per extra sink
    fanout_cap: int = 15              # buffering assumed beyond this fanout
    congestion_ps: float = 120.0      # per unit of overuse along a path

    def __hash__(self) -> int:
        # Hashed, with its class, into the key of every per-image delay a
        # placed block keeps: the fields are frozen, so hash them once.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash(
                (type(self), *(getattr(self, f.name) for f in fields(self))))
            return value

    # -- logic ---------------------------------------------------------------

    def logic_delay_ps(self, cell: Cell) -> float:
        """Clock-to-out (sequential) or propagation (combinational)."""
        return cell.logic_delay_ps()

    def wire_delay_ps(self, tiles: float) -> float:
        """Distance-dependent wire delay: singles/hexes up to the knee,
        faster long lines beyond it (as on real fabrics, where long-haul
        routes ride dedicated low-RC wires)."""
        near = min(tiles, self.long_line_knee)
        far = max(0.0, tiles - self.long_line_knee)
        return self.tile_delay_ps * near + self.far_tile_delay_ps * far

    def setup_ps(self, cell: Cell) -> float:
        return cell.spec.setup_ps

    def _overrides(self, *methods: str) -> bool:
        """Whether a subclass replaced any of *methods* (bulk forms then
        defer to the per-object ones, which may look at anything)."""
        cls = type(self)
        return any(getattr(cls, m) is not getattr(DelayModel, m) for m in methods)

    def cell_delays_ps(self, cells: list[Cell]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`logic_delay_ps` and :meth:`setup_ps` of every cell, as
        two float arrays.  Both are functions of ``(ctype, comb_depth)``,
        so each is asked once per distinct pair — but a handful of cells
        (a pipelining pass's register) one by one."""
        if len(cells) <= 8 or self._overrides("logic_delay_ps", "setup_ps"):
            asked, inverse = cells, slice(None)
        else:
            ctypes = [c.ctype for c in cells]
            code = {ctype: k for k, ctype in enumerate(dict.fromkeys(ctypes))}
            kind = np.fromiter(map(code.__getitem__, ctypes), np.int64, len(cells))
            depth = np.array([c.comb_depth for c in cells], dtype=np.int64)
            _, first, inverse = np.unique(
                depth * len(code) + kind, return_index=True, return_inverse=True
            )
            asked = [cells[i] for i in first.tolist()]
        return (
            np.array([self.logic_delay_ps(c) for c in asked], dtype=np.float64)[inverse],
            np.array([self.setup_ps(c) for c in asked], dtype=np.float64)[inverse],
        )

    # -- wires ----------------------------------------------------------------

    def routed_delay_ps(self, tiles: int, crossings: int, fanout: int = 1) -> float:
        """Delay of a routed source->sink path from its path metrics."""
        return (
            self.net_base_ps
            + self.wire_delay_ps(tiles)
            + self.io_cross_ps * crossings
            + self.fanout_ps * min(max(0, fanout - 1), self.fanout_cap)
        )

    def routed_delays_ps(
        self, tiles: np.ndarray, crossings: np.ndarray, fanout: np.ndarray
    ) -> np.ndarray:
        """Array form of :meth:`routed_delay_ps` over int arrays: the same
        operations in the same order on each element, so every delay is
        the float the scalar method returns."""
        if self._overrides("routed_delay_ps", "wire_delay_ps"):
            return np.array(
                [self.routed_delay_ps(*tcf) for tcf in zip(
                    tiles.tolist(), crossings.tolist(), fanout.tolist())],
                dtype=np.float64,
            )
        wire = (
            self.tile_delay_ps * np.minimum(tiles, self.long_line_knee)
            + self.far_tile_delay_ps * np.maximum(0.0, tiles - self.long_line_knee)
        )
        return (
            self.net_base_ps
            + wire
            + self.io_cross_ps * crossings
            + self.fanout_ps * np.minimum(np.maximum(0, fanout - 1), self.fanout_cap)
        )

    def routed_net_delay_ps(
        self, graph: RoutingGraph, path: list[int], fanout: int = 1
    ) -> float:
        """Delay of one routed source->sink path."""
        return self.routed_delay_ps(*graph.path_metrics(path), fanout)

    def estimated_net_delay_ps(
        self,
        device: Device | None,
        src: tuple[int, int] | None,
        dst: tuple[int, int] | None,
        fanout: int = 1,
    ) -> float:
        """Placement-based estimate for an unrouted net."""
        if src is None or dst is None:
            tiles = self.unplaced_tiles
            crossings = 0
        else:
            tiles = (abs(src[0] - dst[0]) + abs(src[1] - dst[1])) * self.detour_factor
            crossings = device.io_crossings(src[0], dst[0]) if device is not None else 0
        return (
            self.net_base_ps
            + self.wire_delay_ps(tiles)
            + self.io_cross_ps * crossings
            + self.fanout_ps * min(max(0, fanout - 1), self.fanout_cap)
        )

    def net_delay_ps(
        self,
        design: Design,
        net: Net,
        sink_index: int,
        device: Device | None = None,
        graph: RoutingGraph | None = None,
    ) -> float:
        """Delay from a net's driver to ``net.sinks[sink_index]``."""
        fanout = len(net.sinks)
        route = net.routes[sink_index] if sink_index < len(net.routes) else None
        if route is not None and graph is not None:
            return self.routed_net_delay_ps(graph, route, fanout)
        src = design.cells[net.driver].placement if net.driver else None
        sink = net.sinks[sink_index]
        dst = design.cells[sink].placement if sink in design.cells else None
        return self.estimated_net_delay_ps(device, src, dst, fanout)


#: Library-default calibration.
DEFAULT_DELAYS = DelayModel()
