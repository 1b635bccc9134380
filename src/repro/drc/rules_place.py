"""Placement rules (PLC-*): physical legality of cell placements.

These run only when a device is supplied.  The fatal rules carry the
exact messages :meth:`repro.netlist.Design.validate` historically raised
(out of bounds, wrong tile, pblock escape, double-booking); PLC-001 is
new — the fail-fast validator silently skipped unplaced cells.
"""

from __future__ import annotations

import numpy as np

from ..fabric.device import TILE_FOR_CELL
from .engine import rule

#: The per-cell loops the vectorised fatal rules (PLC-002..005) replaced,
#: kept as their oracle: same ids, order and messages.
ORACLE = "tests.test_block_design.fatal_rules_per_object"


@rule("PLC-001", category="placement", severity="error", title="unplaced cell")
def plc_unplaced(ctx, emit) -> None:
    """A cell without a site.  Legal mid-flow, illegal in any checkpoint
    or flow output that claims to be implemented."""
    for cell in ctx.design.cells.values():
        if not cell.is_placed:
            emit("cell", cell.name, f"cell {cell.name} ({cell.ctype}) is unplaced")


# The four fatal rules below are one array expression each over
# ``ctx.cells`` (:class:`repro.netlist.block.CellTable`), whether the
# design is objects or placed blocks; only the offenders found are
# resolved back to names.  A placed block whose verdict follows from its
# image — its bounding box on the grid or inside the pblock, its few
# distinct (column, type) pairs on matching columns, one cell per site
# in a box no other block's overlaps and no glue cell on its sites — is
# cleared whole (``CellTable.without`` / ``sharing``) and none of its
# cells is looked at.
# Their per-cell loops live on in ``tests/test_block_design.py`` as the
# oracle: same ids, order, messages.


@rule("PLC-002", category="placement", severity="fatal", title="site double-booked")
def plc_double_booked(ctx, emit) -> None:
    """Two cells on the same site (one site per tile on this fabric)."""
    cells = ctx.cells.sharing()          # (a block no other cell can reach is cleared)
    # Scatter every placed cell onto the grid: as many sites taken as
    # cells placed means nobody shares one.  (Anything off the grid, or a
    # shared site, goes on to be sorted out below.)
    ids = cells.site_ids(ctx.device)
    if ids is not None:
        taken = np.zeros(ctx.device.ncols * ctx.device.nrows, dtype=bool)
        taken[ids] = True
        if np.count_nonzero(taken) == ids.size:
            return
    placed = np.flatnonzero(cells.placed)
    if placed.size < 2:
        return
    col, row = cells.col[placed], cells.row[placed]
    key = (col - col.min()) * (int(row.max()) - int(row.min()) + 1) + (row - row.min())
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    holder = first[group]                 # first cell (in design order) on each site
    for k in np.flatnonzero(holder != np.arange(placed.size)).tolist():
        site = f"({col[k]},{row[k]})"
        emit("site", site,
             f"site {site} double-booked by "
             f"{cells.describe(int(placed[holder[k]]))[0]} and "
             f"{cells.describe(int(placed[k]))[0]}")


def _in_bounds(cells, device) -> np.ndarray:
    return ((cells.col >= 0) & (cells.col < device.ncols)
            & (cells.row >= 0) & (cells.row < device.nrows))


@rule("PLC-003", category="placement", severity="fatal", title="wrong tile type")
def plc_wrong_tile(ctx, emit) -> None:
    """A cell placed on a column whose tile type cannot host its site."""
    device = ctx.device
    cells = ctx.cells.without(lambda block: block.on_legal_sites(device))
    # out-of-bounds placements are PLC-005's problem
    on_grid = cells.placed & _in_bounds(cells, device)
    need = np.array([TILE_FOR_CELL[k] for k in cells.kinds], dtype=np.int64)[cells.kind]
    have = device.col_types[np.where(on_grid, cells.col, 0)]
    for i in np.flatnonzero(on_grid & (have != need)).tolist():
        name, ctype, placement = cells.describe(i)
        col, row = placement
        emit("cell", name,
             f"cell {name} ({ctype}) on wrong tile type "
             f"{device.tile_type_name(col)} at {placement}",
             detail=f"({col},{row})")


@rule("PLC-004", category="placement", severity="fatal", title="pblock escape")
def plc_pblock_escape(ctx, emit) -> None:
    """A placed cell outside the design's pblock constraint."""
    pblock = ctx.design.pblock
    if pblock is None:
        return
    cells = ctx.cells.without(
        lambda block: block.within(pblock.col0, pblock.row0, pblock.col1, pblock.row1))
    inside = ((cells.col >= pblock.col0) & (cells.col <= pblock.col1)
              & (cells.row >= pblock.row0) & (cells.row <= pblock.row1))
    for i in np.flatnonzero(cells.placed & ~inside).tolist():
        name, _ctype, placement = cells.describe(i)
        emit("cell", name,
             f"cell {name} at {placement} escapes {pblock}",
             detail=f"({placement[0]},{placement[1]})")


@rule("PLC-005", category="placement", severity="fatal", title="placement out of bounds")
def plc_out_of_bounds(ctx, emit) -> None:
    """A placed cell outside the device grid."""
    device = ctx.device
    cells = ctx.cells.without(
        lambda block: block.within(0, 0, device.ncols - 1, device.nrows - 1))
    for i in np.flatnonzero(cells.placed & ~_in_bounds(cells, device)).tolist():
        name, _ctype, placement = cells.describe(i)
        emit("cell", name, f"cell {name} placed out of bounds at {placement}")
