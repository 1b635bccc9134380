"""Part catalog: columnar FPGA part definitions.

A part describes the column layout of an UltraScale-like device: resource
columns (CLB/DSP/BRAM) replicated over full columns of clock regions, with
I/O columns interrupting the fabric ("fabric discontinuities", paper
Sec. V-E).  The main part, :data:`KU5P_LIKE`, is calibrated so its resource
totals reproduce the utilization denominators implied by Table II of the
paper (~331.7k LUTs, ~663k FFs, ~2160 BRAM36, ~2760 DSP48):

* 140 CLB columns x 300 rows x 8 LUT  = 336,000 LUTs  (672,000 FFs)
* 9 DSP columns x 300 rows            = 2,700 DSP48E2
* 7 BRAM columns x 300 rows           = 2,100 RAMB36

Pattern strings use one character per column: ``C`` CLB, ``D`` DSP,
``B`` BRAM, ``I`` I/O, ``U`` URAM, ``.`` null.  Whitespace is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PartSpec", "get_part", "part_doc", "PART_CATALOG", "KU5P_LIKE", "TINY", "SMALL"]

# Column-pattern building blocks for the calibrated part.  Unit A carries one
# DSP and one BRAM column per 20 CLB columns; unit B carries two DSP columns.
_UNIT_A = "CCCCCC D CCCCCCCCC B CCCCCCCCCC"
_UNIT_B = "CCCCC D CCCCC D CCCCCC B CCCC"


@dataclass(frozen=True)
class PartSpec:
    """Static description of a device part.

    Attributes
    ----------
    name:
        Catalog name, e.g. ``"ku5p-like"``.
    pattern:
        Column pattern string (see module docstring).
    rows:
        Number of tile rows.
    clock_region_rows:
        Height of one clock region in rows; relocation anchors and clock
        routing are organised per region.
    clock_region_cols:
        Width of one clock region in columns.
    luts_per_clb / ffs_per_clb:
        Site capacity of one CLB tile (one SLICE cluster).
    wires_per_tile:
        Routing capacity of the interconnect tile co-located with every
        fabric tile (PathFinder node capacity).
    io_wires_per_tile:
        Reduced routing capacity over I/O columns (the discontinuity both
        narrows and slows routing).
    """

    name: str
    pattern: str
    rows: int
    clock_region_rows: int = 60
    clock_region_cols: int = 40
    luts_per_clb: int = 8
    ffs_per_clb: int = 16
    wires_per_tile: int = 224
    io_wires_per_tile: int = 112

    def columns(self) -> str:
        """Return the pattern with whitespace stripped (one char per column)."""
        return "".join(self.pattern.split())


def _assemble(*chunks: str) -> str:
    return " ".join(chunks)


KU5P_LIKE = PartSpec(
    name="ku5p-like",
    pattern=_assemble(
        _UNIT_A, _UNIT_A, "I", _UNIT_A, _UNIT_A, "I", _UNIT_A, _UNIT_A, "I",
        _UNIT_A, _UNIT_A
    ),
    rows=300,
)

# Small parts for tests and examples: same column idioms, far fewer tiles.
# Periodic like the big part, so replicated components find anchors.
SMALL = PartSpec(
    name="small",
    pattern=_assemble(_UNIT_A, "I", _UNIT_A, _UNIT_A),
    rows=120,
    clock_region_rows=30,
    clock_region_cols=28,
)

TINY = PartSpec(
    name="tiny",
    pattern="CCC D CCC B CC I CCC D CC",
    rows=24,
    clock_region_rows=12,
    clock_region_cols=8,
)

PART_CATALOG: dict[str, PartSpec] = {
    p.name: p for p in (KU5P_LIKE, SMALL, TINY)
}


def get_part(name: str) -> PartSpec:
    """Look up a part by catalog name.

    Raises :class:`KeyError` with the list of known parts when unknown.
    """
    try:
        return PART_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(PART_CATALOG))
        raise KeyError(f"unknown part {name!r}; known parts: {known}") from None


def part_doc(name: str) -> dict:
    """Part *name* as JSON: ``repro info --json`` and one entry of ``GET /v1/parts``."""
    from .device import Device  # which imports this module

    device = Device.from_name(name)
    return {
        "name": device.name,
        "columns": device.ncols,
        "rows": device.nrows,
        "resources": {k: int(v) for k, v in sorted(device.resource_totals.items())},
        "io_columns": [int(c) for c in device.io_columns],
    }
