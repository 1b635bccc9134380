"""Out-of-context (OOC) pre-implementation of a component.

Implements the paper's function-optimization recipe (Sec. IV-A2):

* **strategic floorplanning** — a minimal pblock is grown for the
  component's resource demand (small pblocks relocate to more anchors);
* **strategic port planning** — the cells behind each boundary port are
  swapped to sites on the pblock edge and a partition-pin tile is
  recorded, so inter-module nets stay short when the component is later
  dropped into a top-level design;
* **clock routing** — an ``HD.CLK_SRC`` stub tile is recorded so OOC
  timing analysis can run without inserted clock buffers;
* **logic locking** — placement and routing are locked on success so
  later flow stages only touch non-routed nets;
* **checkpoint generation** — the result is serializable as a DCP.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fabric.device import Device, TILE_FOR_CELL
from ..fabric.pblock import PBlock, auto_pblock
from ..netlist.design import Design
from ..obs.span import span
from ..place.placer import PlacementResult, place_design
from ..route.pathfinder import RouteResult, Router
from ..timing.incremental import IncrementalSta
from ..timing.sta import TimingReport

__all__ = ["OOCResult", "preimplement"]


@dataclass
class OOCResult:
    """A pre-implemented, locked component."""

    design: Design
    pblock: PBlock
    timing: TimingReport
    place: PlacementResult
    route: RouteResult

    @property
    def fmax_mhz(self) -> float:
        return self.timing.fmax_mhz


def preimplement(
    design: Design,
    device: Device,
    *,
    effort: str = "high",
    seed: int = 0,
    plan_ports: bool = True,
    slack: float = 1.15,
    max_height: int | None = None,
) -> OOCResult:
    """Pre-implement *design* OOC inside an auto-floorplanned pblock.

    ``plan_ports=False`` skips port planning (the ablation of paper
    Sec. IV-A2's warning about unplanned I/O placement).  ``max_height``
    overrides the automatic pblock aspect (used by the design-space
    exploration of :mod:`repro.rapidwright.explore`).  The input design
    is modified in place and fully locked.
    """
    graph = device.routing_graph

    with span("ooc/floorplan"):
        demand = design.site_demand()
        pblock = auto_pblock(
            device,
            demand,
            anchor=(0, 0),
            slack=slack,
            max_height=max_height if max_height is not None
            else _aspect_height(device, demand),
        )
        design.pblock = pblock

    with span("ooc/place"):
        place = place_design(design, device, region=pblock, effort=effort, seed=seed)

    with span("ooc/port_planning"):
        if plan_ports:
            _plan_ports(design, device, pblock)

    with span("ooc/route"):
        route = Router(device, graph).route(design, region=pblock)

    with span("ooc/timing"):
        # HD.CLK_SRC: stub clock entry at the pblock boundary mid-height.
        design.metadata["clk_src"] = (pblock.col0, (pblock.row0 + pblock.row1) // 2)
        timing = IncrementalSta(design, device, graph).analyze()

    design.metadata["ooc"] = {
        "fmax_mhz": timing.fmax_mhz,
        "pblock": [pblock.col0, pblock.row0, pblock.col1, pblock.row1],
        "column_signature": list(pblock.column_signature(device)),
        "plan_ports": plan_ports,
        "effort": effort,
        "seed": seed,
    }
    design.lock_all()
    return OOCResult(design=design, pblock=pblock, timing=timing, place=place, route=route)


def _aspect_height(device: Device, demand: dict[str, int]) -> int:
    """Pick a pblock height keeping big components tall-and-narrow.

    Wide flat slabs cannot pack side by side when a network's components
    are later placed together; aiming for roughly 2:1 height:width (in
    clock-region multiples) keeps VGG-scale blocks tileable.  DSP and
    BRAM columns are sparse, so DSP/BRAM-heavy components additionally
    grow tall enough to cover their demand from at most ~2 such columns —
    otherwise the pblock must span several sparse columns and balloons in
    width.
    """
    from math import ceil, sqrt

    cr = device.part.clock_region_rows
    slices = max(demand.get("SLICE", 1), 1)
    want = ceil(sqrt(2.6 * slices))
    for sparse in ("DSP48E2", "RAMB36"):
        need = demand.get(sparse, 0)
        if need:
            want = max(want, ceil(need * 1.2 / 2))
    regions = max(1, -(-want // cr))
    if regions * cr > device.nrows // 2:
        # Above half the die, go full height: full-height slabs pack
        # side by side (1-D packing), where mid-height giants leave
        # unusable strips above/below themselves.
        return device.nrows
    return regions * cr


def _plan_ports(design: Design, device: Device, pblock: PBlock) -> None:
    """Move port endpoint cells to the pblock edge and set partition pins.

    Input ports go to the left edge, output ports to the right, matching
    the left-to-right dataflow of the stitched stream architecture.
    """
    occupant: dict[tuple[int, int], str] = {
        cell.placement: cell.name for cell in design.cells.values() if cell.is_placed
    }
    for port in design.ports.values():
        net = design.nets[port.net]
        if net.is_clock:
            continue
        endpoint_names = net.sinks if port.direction == "in" else [net.driver]
        edge_col = pblock.col0 if port.direction == "in" else pblock.col1
        for name in endpoint_names:
            cell = design.cells.get(name)
            if cell is None or not cell.is_placed:
                continue
            site = _edge_site(device, pblock, cell, edge_col, port.direction)
            if site is None or site == cell.placement:
                continue
            other_name = occupant.get(site)
            old = cell.placement
            cell.placement = site
            occupant[site] = cell.name
            if other_name is not None:
                other = design.cells[other_name]
                other.placement = old
                occupant[old] = other_name
            else:
                del occupant[old]
        # Partition pin: the interconnect tile on the pblock edge nearest
        # the (re)placed endpoint cell.
        ref = design.cells.get(endpoint_names[0]) if endpoint_names else None
        row = ref.placement[1] if ref is not None and ref.is_placed else pblock.row0
        port.tile = (edge_col, row)


def _edge_site(
    device: Device, pblock: PBlock, cell, edge_col: int, direction: str
) -> tuple[int, int] | None:
    """Nearest site of the cell's type to the requested pblock edge."""
    want_tile = TILE_FOR_CELL[cell.ctype]
    cols = range(pblock.col0, pblock.col1 + 1)
    if direction == "out":
        cols = reversed(list(cols))
    row = cell.placement[1]
    for col in cols:
        if device.tile_type(col) == want_tile:
            return (col, row)
    return None
