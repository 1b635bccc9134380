"""Motivation-example kernels (paper Fig. 1).

Four applications mapped onto a block of 3x3 processing elements, as in
Mandebi et al.'s overlay study the paper uses for motivation:

* ``MM`` — matrix multiplication (MAC-heavy PEs, systolic in both axes)
* ``OP`` — outer product (multiply-only PEs, row/column broadcast)
* ``RC`` — Robert Cross edge detection (LUT gradient PEs, no DSP)
* ``SM`` — smoothing / box filter (adder-tree PEs)

Each PE is a small cluster of slices plus (for MM/OP) a DSP; PEs connect
in a grid, which makes the blocks ideal pre-implementation candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netlist.design import Design
from ..netlist.net import WORD_BITS
from .builder import NetlistBuilder

__all__ = ["gen_pe_array", "KERNELS", "KernelSpec"]


@dataclass(frozen=True)
class KernelSpec:
    """Per-application PE composition."""

    name: str
    lut_per_pe: int
    ff_per_pe: int
    dsp_per_pe: int
    comb_depth: int
    description: str


KERNELS: dict[str, KernelSpec] = {
    "MM": KernelSpec("MM", 96, 120, 1, 3, "matrix multiplication"),
    "OP": KernelSpec("OP", 64, 96, 1, 2, "outer product"),
    "RC": KernelSpec("RC", 120, 64, 0, 3, "Robert Cross"),
    "SM": KernelSpec("SM", 104, 88, 0, 4, "smoothing"),
}


def gen_pe_array(kernel: str, rows: int = 3, cols: int = 3, name: str | None = None) -> Design:
    """Generate a ``rows x cols`` PE array for one of the Fig. 1 kernels."""
    try:
        spec = KERNELS[kernel.upper()]
    except KeyError:
        known = ", ".join(sorted(KERNELS))
        raise KeyError(f"unknown kernel {kernel!r}; known: {known}") from None

    builder = NetlistBuilder(name or f"{spec.name.lower()}_pe{rows}x{cols}")
    grid: list[list[str]] = []
    for r in range(rows):
        row_cells: list[str] = []
        for c in range(cols):
            slices = builder.slice_group(
                f"pe_{r}_{c}", spec.lut_per_pe, spec.ff_per_pe, comb_depth=spec.comb_depth
            )
            if len(slices) > 1:
                builder.chain(slices, f"pe_{r}_{c}_int", width=8)
            head = slices[0]
            if spec.dsp_per_pe:
                dsps = builder.dsp_group(f"pe_{r}_{c}_mac", spec.dsp_per_pe, comb_depth=2)
                builder.link(head, dsps[0], f"pe_{r}_{c}_op", width=WORD_BITS)
                builder.link(dsps[-1], slices[-1], f"pe_{r}_{c}_res", width=2 * WORD_BITS)
            row_cells.append(head)
        grid.append(row_cells)

    # Systolic grid: data flows right, partial results flow down.
    for r in range(rows):
        builder.chain(grid[r], f"row{r}")
    for c in range(cols):
        builder.chain([grid[r][c] for r in range(rows)], f"col{c}")

    ctl = builder.slice_group("ctl", 48, 32, comb_depth=2)
    builder.fanout(ctl[0], [grid[r][0] for r in range(rows)], "start", width=2)

    builder.input_port("in_data", [grid[0][0]])
    builder.output_port("out_data", grid[rows - 1][cols - 1])
    builder.clock()
    return builder.finish(
        kind=f"kernel_{spec.name.lower()}",
        params={"kernel": spec.name, "rows": rows, "cols": cols},
        parallelism={"pf": rows * cols, "pk": 1},
        comb_depth=spec.comb_depth,
    )
