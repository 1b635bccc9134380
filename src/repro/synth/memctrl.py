"""Memory-controller sub-circuit (paper Fig. 5).

Each pre-implemented component carries a "source" interface (a memory
controller that reads feature maps/weights and feeds the compute units)
and a "sink" interface (controls writing feature maps to on-chip
memory).  Both are built here and embedded by the conv/pool/FC
generators; a standalone generator is also provided for the memory
management unit of the LeNet architecture.
"""

from __future__ import annotations

from ..netlist.design import Design
from ..netlist.net import WORD_BITS
from .builder import NetlistBuilder
from .resources import addr_bits_for, memctrl_resources

__all__ = ["build_memctrl", "gen_memctrl"]


def build_memctrl(
    builder: NetlistBuilder, prefix: str, n_words: int
) -> tuple[list[str], str, str]:
    """Embed a memory controller into *builder*.

    Returns ``(all_cells, entry, exit)``: *entry* is the cell receiving
    external data, *exit* the cell driving the datapath (or memory on the
    sink side).  Address generation uses DSP multipliers to compose
    addresses from (channel, row, col) indices.
    """
    addr_bits = addr_bits_for(n_words)
    res = memctrl_resources(addr_bits)
    slices = builder.slice_group(f"{prefix}_ctl", res["LUT"], res["FF"], comb_depth=2)
    dsps = builder.dsp_group(f"{prefix}_addr", res["DSP48E2"])
    brams = builder.bram_group(f"{prefix}_fifo", res["RAMB36"])
    # address generators feed the FIFO controller; control is distributed
    # through a pipelined chain (broadcasting to the whole group would put
    # an unbufferable high-fanout net on the critical path).
    if dsps:
        builder.chain(dsps, f"{prefix}_addrchain", width=addr_bits)
        builder.link(dsps[-1], brams[0], f"{prefix}_addr", width=addr_bits)
    if len(slices) > 1:
        builder.chain(slices, f"{prefix}_ctlbus", width=4)
    builder.link(slices[0], dsps[0] if dsps else brams[0], f"{prefix}_go", width=2)
    builder.link(brams[0], slices[-1], f"{prefix}_rdata", width=WORD_BITS)
    cells = slices + dsps + brams
    return cells, brams[0], slices[-1]


def gen_memctrl(n_words: int, name: str = "memctrl") -> Design:
    """Standalone memory-management-unit component."""
    builder = NetlistBuilder(name)
    cells, entry, exit_ = build_memctrl(builder, "mm", n_words)
    builder.input_port("in_data", [entry], protocol="mem")
    builder.output_port("out_data", exit_, protocol="mem")
    builder.clock()
    return builder.finish(
        kind="memctrl",
        params={"n_words": n_words},
        parallelism={"pf": 1, "pk": 1},
    )
