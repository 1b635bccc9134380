"""Device model: a columnar grid of fabric tiles.

The device is an ``ncols x nrows`` grid.  Every column has a single tile
type (columnar architecture, like Xilinx UltraScale): CLB, DSP, BRAM, I/O,
URAM or null.  Each CLB tile provides one SLICE site (a cluster of 8 LUTs +
16 FFs); each DSP tile one DSP48E2 site; each BRAM tile one RAMB36 site.

Coordinates are ``(col, row)`` with ``col`` advancing left-to-right and
``row`` bottom-to-top.  A site is addressed by its tile coordinate since
every tile holds at most one site.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .parts import PartSpec, get_part

__all__ = ["TileType", "Device", "SITE_FOR_TILE", "TILE_FOR_CELL"]


class TileType:
    """Integer tile-type codes (kept small for compact numpy arrays)."""

    NULL = 0
    CLB = 1
    DSP = 2
    BRAM = 3
    IO = 4
    URAM = 5

    NAMES: ClassVar[dict[int, str]] = {
        NULL: "NULL", CLB: "CLB", DSP: "DSP", BRAM: "BRAM", IO: "IO", URAM: "URAM"
    }
    FROM_CHAR: ClassVar[dict[str, int]] = {
        ".": NULL, "C": CLB, "D": DSP, "B": BRAM, "I": IO, "U": URAM
    }


#: Site type provided by each tile type (None = no placeable site).
SITE_FOR_TILE = {
    TileType.CLB: "SLICE",
    TileType.DSP: "DSP48E2",
    TileType.BRAM: "RAMB36",
    TileType.URAM: "URAM288",
}

#: Tile type required by each placeable cell/site type.
TILE_FOR_CELL = {site: tile for tile, site in SITE_FOR_TILE.items()}
#: Clock buffers (CTS) have no dedicated column on this fabric model;
#: they occupy spare CLB sites, one per tile like any SLICE.
TILE_FOR_CELL["BUFCE"] = TileType.CLB


@dataclass(frozen=True)
class Device:
    """An instantiated FPGA device.

    Create with :meth:`Device.from_part` (by :class:`PartSpec`) or
    :meth:`Device.from_name` (by catalog name).
    """

    part: PartSpec
    col_types: np.ndarray  # (ncols,) int8 tile-type code per column

    # -- construction -----------------------------------------------------

    @classmethod
    def from_part(cls, part: PartSpec) -> "Device":
        cols = part.columns()
        codes = np.array([TileType.FROM_CHAR[c] for c in cols], dtype=np.int8)
        return cls(part=part, col_types=codes)

    @classmethod
    def from_name(cls, name: str) -> "Device":
        return cls.from_part(get_part(name))

    # -- geometry ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self.part.name

    @property
    def ncols(self) -> int:
        return int(self.col_types.shape[0])

    @property
    def nrows(self) -> int:
        return self.part.rows

    def in_bounds(self, col: int, row: int) -> bool:
        return 0 <= col < self.ncols and 0 <= row < self.nrows

    def tile_type(self, col: int) -> int:
        """Tile-type code of column *col* (uniform over all rows)."""
        return self._col_type_ints[col]

    @cached_property
    def _col_type_ints(self) -> tuple[int, ...]:
        return tuple(self.col_types.tolist())

    def tile_type_name(self, col: int) -> str:
        return TileType.NAMES[self.tile_type(col)]

    def columns_of(self, tile_type: int) -> np.ndarray:
        """Column indices whose tiles are of *tile_type* (sorted ascending)."""
        return np.flatnonzero(self.col_types == tile_type)

    @cached_property
    def io_columns(self) -> np.ndarray:
        """Fabric-discontinuity columns (I/O); crossing them costs delay."""
        return self.columns_of(TileType.IO)

    @cached_property
    def io_prefix(self) -> np.ndarray:
        """``io_prefix[c]``: number of I/O columns left of column *c*
        (length ``ncols + 1``), so a span's count is two lookups."""
        prefix = np.zeros(self.ncols + 1, dtype=np.int64)
        np.cumsum(self.col_types == TileType.IO, out=prefix[1:])
        return prefix

    @cached_property
    def io_mask(self) -> np.ndarray:
        """``1`` at each I/O column, ``0`` elsewhere (``uint8``)."""
        return (self.col_types == TileType.IO).astype(np.uint8)

    @cached_property
    def _io_prefix_ints(self) -> tuple[int, ...]:
        return tuple(self.io_prefix.tolist())

    def io_crossings(self, col_a: int, col_b: int) -> int:
        """Number of I/O columns strictly between two columns."""
        lo, hi = (col_a, col_b) if col_a <= col_b else (col_b, col_a)
        if lo == hi:
            return 0
        prefix = self._io_prefix_ints
        return prefix[hi] - prefix[lo + 1]

    @cached_property
    def routing_graph(self) -> "RoutingGraph":
        """The device's one :class:`~repro.fabric.interconnect.RoutingGraph`,
        built on first use: the flows, ``preimplement`` and DRC share it,
        and with it the router's pooled work arrays."""
        from .interconnect import RoutingGraph

        return RoutingGraph(self)

    def __getstate__(self) -> dict:
        # A pickled device (a build task's argument) is its fields: what
        # is derived from them, the routing graph first, is rebuilt on use.
        return {"part": self.part, "col_types": self.col_types}

    # -- clock regions ------------------------------------------------------

    def clock_region(self, col: int, row: int) -> tuple[int, int]:
        """``(x, y)`` clock-region coordinate containing tile ``(col,row)``."""
        return (col // self.part.clock_region_cols, row // self.part.clock_region_rows)

    @property
    def clock_region_grid(self) -> tuple[int, int]:
        """Number of clock regions horizontally and vertically."""
        cx = -(-self.ncols // self.part.clock_region_cols)
        cy = -(-self.nrows // self.part.clock_region_rows)
        return (cx, cy)

    # -- sites / resources ---------------------------------------------------

    def sites_of(self, cell_type: str) -> np.ndarray:
        """All ``(col, row)`` site coordinates accepting *cell_type*.

        Returned as an ``(n, 2)`` int array ordered column-major (all rows of
        the leftmost matching column first).
        """
        tile = TILE_FOR_CELL.get(cell_type)
        if tile is None:
            raise KeyError(f"no site hosts cell type {cell_type!r}")
        cols = self.columns_of(tile)
        rows = np.arange(self.nrows)
        grid_c = np.repeat(cols, self.nrows)
        grid_r = np.tile(rows, cols.shape[0])
        return np.stack([grid_c, grid_r], axis=1)

    def site_count(self, cell_type: str) -> int:
        tile = TILE_FOR_CELL.get(cell_type)
        if tile is None:
            return 0
        return int(self.columns_of(tile).shape[0]) * self.nrows

    @cached_property
    def resource_totals(self) -> dict[str, int]:
        """Totals used as utilization denominators (Table II)."""
        n_clb = int(self.columns_of(TileType.CLB).shape[0]) * self.nrows
        return {
            "LUT": n_clb * self.part.luts_per_clb,
            "FF": n_clb * self.part.ffs_per_clb,
            "SLICE": n_clb,
            "DSP48E2": self.site_count("DSP48E2"),
            "RAMB36": self.site_count("RAMB36"),
            "URAM288": self.site_count("URAM288"),
        }

    def utilization(self, used: dict[str, int]) -> dict[str, float]:
        """Fractional utilization of *used* resources against this device."""
        totals = self.resource_totals
        out: dict[str, float] = {}
        for key, amount in used.items():
            total = totals.get(key, 0)
            out[key] = amount / total if total else float("inf") if amount else 0.0
        return out

    # -- relocation support ----------------------------------------------

    def column_signature(self, col0: int, width: int) -> tuple[int, ...]:
        """Tile-type codes of ``width`` columns starting at *col0*."""
        if col0 < 0 or col0 + width > self.ncols:
            raise IndexError(f"columns [{col0}, {col0 + width}) out of range")
        return tuple(int(c) for c in self.col_types[col0 : col0 + width])

    def matching_column_anchors(self, signature: tuple[int, ...]) -> list[int]:
        """All anchor columns where the device column types equal *signature*.

        This implements the columnar-compatibility rule for relocating a
        pre-implemented module: the module's column footprint must find an
        identical run of column types at the destination.
        """
        width = len(signature)
        if width == 0 or width > self.ncols:
            return []
        sig = np.asarray(signature, dtype=np.int8)
        windows = np.lib.stride_tricks.sliding_window_view(self.col_types, width)
        return [int(i) for i in np.flatnonzero((windows == sig).all(axis=1))]

    def describe(self) -> str:
        """Human-readable summary (README/examples)."""
        totals = self.resource_totals
        cx, cy = self.clock_region_grid
        return (
            f"device {self.name}: {self.ncols} cols x {self.nrows} rows, "
            f"{cx}x{cy} clock regions, "
            f"{totals['LUT']} LUTs, {totals['FF']} FFs, "
            f"{totals['DSP48E2']} DSPs, {totals['RAMB36']} BRAM36"
        )
