"""Fully connected engine generator.

The paper implements FC layers as convolutions whose kernel equals the
input size (Sec. V-B1).  The engine processes ``fc_pu_cap`` output units
in parallel, streaming the input vector against BRAM-resident (ROM) or
staged (off-chip) weights, with a deep accumulation chain per unit.
"""

from __future__ import annotations

from math import ceil, log2

from ..netlist.design import Design
from ..netlist.net import WORD_BITS
from .builder import NetlistBuilder
from .memctrl import build_memctrl
from .resources import fc_resources

__all__ = ["gen_fc", "fc_comb_depth"]


def fc_comb_depth(in_features: int) -> int:
    """Accumulator logic depth grows with the dot-product width, capped at
    5 levels (beyond that the generator retimes into pipeline regs)."""
    return int(min(5, max(2, ceil(log2(max(2, in_features))) - 3)))


def gen_fc(
    in_features: int,
    units: int,
    *,
    rom_weights: bool = True,
    include_relu: bool = False,
    name: str | None = None,
) -> Design:
    """Generate a fully-connected component netlist."""
    n_weights = in_features * units + units
    budget = fc_resources(in_features, units, n_weights, rom_weights)
    par = budget.par
    depth = fc_comb_depth(in_features)

    builder = NetlistBuilder(name or f"fc_{in_features}x{units}")

    src_cells, src_entry, src_exit = build_memctrl(builder, "src", in_features)

    weight_brams = builder.bram_group("weights", budget.bram_weights)
    addr = builder.slice_group("addr", budget.lut_addr + budget.lut_weights, 32, comb_depth=2)
    if len(addr) > 1:
        builder.chain(addr, "addrchain", width=8)
    builder.fanout(addr[0], weight_brams, "waddr", width=16)

    macs = builder.dsp_group("mac", par.macs_per_cycle, comb_depth=2)
    builder.distribute(weight_brams, macs, "wdata")
    builder.fanout(src_exit, macs, "xdata")

    mac_slices = builder.slice_group("macctl", budget.lut_mac, budget.ff, comb_depth=depth)
    builder.reduce_tree(mac_slices, "acc", width=2 * WORD_BITS)
    for i, mac in enumerate(macs):
        builder.link(mac, mac_slices[i % len(mac_slices)], "psum",
                     width=2 * WORD_BITS)

    out_regs = builder.slice_group("outreg", budget.lut_base, units * 2)
    builder.link(mac_slices[0], out_regs[0], "acc_out")
    if len(out_regs) > 1:
        builder.chain(out_regs, "outchain")

    out_stage = out_regs[-1]
    if include_relu:
        relu = builder.slice_group("relu", max(8, 4 * par.pf), par.pf * 2)
        builder.link(out_stage, relu[0], "to_relu")
        out_stage = relu[-1]

    snk_cells, snk_entry, snk_exit = build_memctrl(builder, "snk", units)
    builder.link(out_stage, snk_entry, "result")

    builder.input_port("in_data", [src_entry], protocol="mem")
    if not rom_weights:
        builder.input_port("in_weights", [weight_brams[0]], protocol="mem")
    builder.output_port("out_data", snk_exit, protocol="mem")
    builder.clock()

    return builder.finish(
        kind="fc_relu" if include_relu else "fc",
        params={
            "in_features": in_features,
            "units": units,
            "rom_weights": rom_weights,
            "n_weights": n_weights,
        },
        parallelism={"pf": par.pf, "pk": par.pk},
        comb_depth=depth,
    )
