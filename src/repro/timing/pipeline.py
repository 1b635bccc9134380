"""Critical-path pipelining: FF insertion to close timing.

When components are spread across the chip, fabric discontinuities
stretch inter-component nets; the paper inserts "pipeline elements such
as FFs on the critical path" to improve Fmax at the cost of latency
(Sec. V-E).  :func:`pipeline_to_target` repeatedly splits the worst
register-to-register net with a pipeline register placed near the net's
midpoint, until the design meets the target period or the pass budget is
exhausted.  The number of inserted registers is recorded in
``design.metadata["pipeline_regs"]`` for the latency model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fabric.device import Device, TILE_FOR_CELL
from ..fabric.interconnect import RoutingGraph
from ..netlist.design import Design
from .delays import DEFAULT_DELAYS, DelayModel
from .incremental import IncrementalSta
from .sta import TimingReport

__all__ = ["PipelineResult", "pipeline_to_target"]


@dataclass
class PipelineResult:
    """Outcome of a pipelining run."""

    inserted: int
    before: TimingReport
    after: TimingReport


class _SiteGrid:
    """Occupied sites, answering ``in`` like the set of ``(col, row)``
    tuples it stands for: the glue cells as an ``(ncols, nrows)`` mask
    filled from their placement columns, and each placed block asked,
    for a site inside its box, through its image's sorted sites — no
    tuple per placed cell, and no block cell put on the grid."""

    def __init__(self, device: Device, cells) -> None:
        """*cells*: a :class:`~repro.netlist.block.CellTable`."""
        self.mask = np.zeros((device.ncols, device.nrows), dtype=bool)
        self.boxes = [(*box, block) for block in cells.blocks()
                      if (box := block.box()) is not None]
        cells = cells.without(lambda _block: True)
        ids = cells.site_ids(device)          # None: a cell is off the grid
        if ids is not None:
            self.mask.ravel()[ids] = True
            return
        placed, col, row = cells.placed, cells.col, cells.row
        ok = placed & (col >= 0) & (col < device.ncols) & (row >= 0) & (row < device.nrows)
        self.mask[col[ok], row[ok]] = True   # off-grid cells block no site

    def __contains__(self, site: tuple[int, int]) -> bool:
        if self.mask[site]:
            return True
        col, row = site
        return any(c0 <= col <= c1 and r0 <= row <= r1 and block.holds(col, row)
                   for c0, r0, c1, r1, block in self.boxes)


def _free_site_near(
    device: Device, occupied, near: tuple[int, int], ctype: str
) -> tuple[int, int] | None:
    """Closest site of *ctype* to *near* not ``in`` *occupied* (ring search)."""
    want_tile = TILE_FOR_CELL[ctype]
    cols = device.columns_of(want_tile)
    if cols.size == 0:
        return None
    ncol, nrow = near
    # Search columns by distance from the target column, rows likewise.
    for col in cols[np.argsort(np.abs(cols - ncol), kind="stable")].tolist():
        if abs(col - ncol) > device.ncols:  # pragma: no cover - defensive
            break
        for dr in range(device.nrows):
            for row in (nrow - dr, nrow + dr) if dr else (nrow,):
                if 0 <= row < device.nrows and (col, row) not in occupied:
                    return (col, row)
    return None


def pipeline_to_target(
    design: Design,
    device: Device,
    target_period_ps: float,
    *,
    graph: RoutingGraph | None = None,
    delays: DelayModel = DEFAULT_DELAYS,
    max_regs: int = 64,
    session: IncrementalSta | None = None,
) -> PipelineResult:
    """Insert pipeline FFs on critical nets until the period target holds.

    Only unlocked nets are split (pre-implemented component internals stay
    intact); splitting a routed net discards its route, leaving it for the
    incremental router.  Newly inserted registers join the clock net.

    Timing is re-analyzed after every insertion through *session* (an
    :class:`~repro.timing.IncrementalSta` already tracking *design*); when
    ``None`` a private session is created, so the loop always pays one
    graph compile plus per-edit cone repropagation rather than ``max_regs``
    full sweeps.
    """
    if session is None:
        session = IncrementalSta(design, device, graph, delays)
    elif session.design is not design:
        raise ValueError(
            f"session tracks design {session.design.name!r}, not {design.name!r}"
        )
    before = session.analyze()
    report = before
    # Sites, endpoints and clock nets are read without asking the design
    # for its objects: on a stitched design only the glue is walked.
    occupied = _SiteGrid(device, design.cell_table())
    clock_nets = design.clock_nets()
    inserted = 0

    while report.period_ps > target_period_ps and inserted < max_regs:
        hop = _worst_splittable_hop(design, report)
        if hop is None:
            break
        net = design.loose_net(hop)
        src = design.placement_of(net.driver)
        # Place the register near the midpoint of the worst hop.
        sink = design.placement_of(net.sinks[0])
        if src is not None and sink is not None:
            mid = ((src[0] + sink[0]) // 2, (src[1] + sink[1]) // 2)
        else:
            mid = src or sink or (0, 0)
        site = _free_site_near(device, occupied, mid, "SLICE")
        reg_name = f"pipe_reg_{inserted}_{net.name.replace('/', '.')}"
        ffs = min(net.width, 16)
        design.new_cell(reg_name, "SLICE", luts=0, ffs=ffs,
                        placement=site, comb_depth=1, seq=True)
        if site is not None:
            occupied.mask[site] = True
        # Split: driver -> reg, reg -> original sinks.  The original net
        # object is detached untouched so a revert can restore it exactly
        # (routes, width, flags included); add_sink only appends to a
        # clock net's sinks and routes, so their lengths undo it.
        saved_net = net
        sinks = list(net.sinks)
        clock_state = [(c, c.lengths()) for c in clock_nets]
        design.remove_net(net.name)
        design.connect(net.name + "__a", net.driver, [reg_name], width=net.width)
        design.connect(net.name + "__b", reg_name, sinks, width=net.width)
        for cnet in clock_nets:
            cnet.add_sink(reg_name)
        new_report = session.analyze()
        if new_report.period_ps >= report.period_ps - 1e-9:
            # No progress (e.g. an I/O-crossing penalty no register removes):
            # revert the split and stop rather than thrash.
            design.remove_net(saved_net.name + "__a")
            design.remove_net(saved_net.name + "__b")
            design.remove_cell(reg_name)
            if site is not None:
                occupied.mask[site] = False
            for cnet, lengths in clock_state:
                cnet.truncate(lengths)
            design.add_net(saved_net)
            break
        inserted += 1
        report = new_report

    design.metadata["pipeline_regs"] = design.metadata.get("pipeline_regs", 0) + inserted
    return PipelineResult(inserted=inserted, before=before, after=report)


def _worst_splittable_hop(design: Design, report: TimingReport) -> str | None:
    """Pick the unlocked net on the critical path with the longest hop."""
    candidates = [net for _cell, net in report.critical_path if net is not None]
    for net_name in reversed(candidates):
        net = design.loose_net(net_name)  # a net inside a placed block is locked
        if net is None or net.locked or net.is_clock or net.driver is None:
            continue
        if not net.sinks:
            continue
        return net_name
    return None
