"""Systolic 2-D convolution engine generator (paper Fig. 4a/4b).

Structure mirrors the paper's circuit: a shift-register line buffer jogs
the input window across the feature maps, weights come from BRAM (ROM for
LeNet-style hardcoded coefficients, double-buffer staging for VGG-style
off-chip weights), and a grid of DSP MAC columns (one per parallel
filter) cascades partial sums into a slice-based accumulation tree.
"""

from __future__ import annotations

from math import ceil, log2

from ..netlist.design import Design
from ..netlist.net import WORD_BITS
from .builder import NetlistBuilder
from .memctrl import build_memctrl
from .resources import CAL, conv_resources

__all__ = ["gen_conv", "conv_comb_depth"]


def conv_comb_depth(comb_terms: int) -> int:
    """Levels of logic in the accumulation tree.

    Wider reductions (more input channels x kernel taps per parallel MAC)
    need deeper trees — this is why conv2 of LeNet (2,416 parameters) runs
    slower than conv1 (156 parameters) in Table III.
    """
    return int(min(6, max(2, ceil(log2(max(2, comb_terms))))))


def gen_conv(
    cin: int,
    height: int,
    width: int,
    kernel: int,
    filters: int,
    *,
    stride: int = 1,
    pad: int = 0,
    rom_weights: bool = True,
    include_relu: bool = False,
    name: str | None = None,
) -> Design:
    """Generate a convolution-engine component netlist.

    Parameters mirror :class:`repro.cnn.layers.Conv2D` resolved against
    its input shape.  ``include_relu`` fuses an output ReLU stage (used
    when a relu node is grouped into the conv component).
    """
    n_weights = kernel * kernel * cin * filters + filters
    oh = (height + 2 * pad - kernel) // stride + 1
    ow = (width + 2 * pad - kernel) // stride + 1
    budget = conv_resources(cin, width, kernel, filters, n_weights, rom_weights, out_width=ow)
    par = budget.par
    depth = conv_comb_depth(budget.comb_terms)

    builder = NetlistBuilder(name or f"conv_c{cin}x{height}x{width}_k{kernel}_f{filters}")

    # Source interface: memory controller feeding the compute units.
    src_cells, src_entry, src_exit = build_memctrl(builder, "src", cin * height * width)

    # Line buffer: (kernel-1) rows of shift registers (or BRAM when wide).
    lb = builder.slice_group("linebuf", budget.lut_lb, budget.ff_in)
    lb_brams = builder.bram_group("linebuf_mem", budget.bram_lb)
    if lb:
        builder.chain(lb, "lb")
        builder.link(src_exit, lb[0], "feed")
    if lb_brams:
        builder.chain(lb_brams, "lbrow")
        builder.link(src_exit, lb_brams[0], "feed_mem")
        if lb:
            builder.link(lb_brams[-1], lb[0], "lb_rd")

    # Weight storage (ROM or off-chip staging).
    weight_brams = builder.bram_group("weights", budget.bram_weights)
    rom_decode = builder.slice_group("wdecode", budget.lut_weights, 32, comb_depth=2)
    if rom_decode:
        builder.fanout(rom_decode[0], weight_brams, "rom_addr", width=16)
        if len(rom_decode) > 1:
            builder.chain(rom_decode, "romchain", width=8)

    # MAC array: one DSP cascade column per parallel filter.
    dsp_cols: list[list[str]] = []
    for f in range(par.pf):
        col = builder.dsp_group(f"mac_f{f}", par.pk, comb_depth=2)
        builder.chain(col, f"psum_f{f}", width=2 * WORD_BITS)
        dsp_cols.append(col)
    all_dsps = [d for col in dsp_cols for d in col]
    builder.distribute(weight_brams, [col[0] for col in dsp_cols], "wload")
    # The line buffer broadcasts the input window to every MAC column head.
    window_src = lb[-1] if lb else src_exit
    builder.fanout(window_src, [col[0] for col in dsp_cols], "window",
                   width=WORD_BITS * kernel)

    # MAC control/pre-add slices distributed along the array.
    mac_slices = builder.slice_group("macctl", budget.lut_mac, budget.ff_mac, comb_depth=2)
    for i, dsp in enumerate(all_dsps):
        if mac_slices:
            builder.link(mac_slices[i % len(mac_slices)], dsp, "opmode", width=4)

    # Accumulation tree collecting the column tails.
    accum = builder.slice_group("accum", 0, budget.ff_out, comb_depth=depth)
    if not accum:
        accum = builder.slice_group("accum", 8, 16, comb_depth=depth)
    builder.reduce_tree(accum, "acctree", width=2 * WORD_BITS)
    tails = [col[-1] for col in dsp_cols]
    leaf_start = max(0, len(accum) - len(tails))
    for i, tail in enumerate(tails):
        leaf = accum[leaf_start + (i % max(1, len(accum) - leaf_start))]
        builder.link(tail, leaf, "col_out", width=2 * WORD_BITS)

    # Output double buffer.
    obuf = builder.bram_group("obuf", budget.bram_obuf)
    out_stage = accum[0]
    if obuf:
        builder.link(out_stage, obuf[0], "to_obuf")
        if len(obuf) > 1:
            builder.chain(obuf, "obuf_bank")
        out_stage = obuf[-1]
    if include_relu:
        relu = builder.slice_group(
            "relu", max(8, CAL["relu_lut_per_ch"] * filters), filters * 2
        )
        builder.fanout(out_stage, relu, "to_relu")
        out_stage = relu[0]

    # Control FSM.
    ctl = builder.slice_group("ctl", budget.lut_base, 64, comb_depth=2)
    heads = [src_cells[0]] + ([lb[0]] if lb else []) + [col[0] for col in dsp_cols] + [accum[0]]
    builder.fanout(ctl[0], heads, "ctl", width=4)
    if len(ctl) > 1:
        builder.chain(ctl, "ctlchain", width=4)

    # Sink interface: writes output feature maps.
    snk_cells, snk_entry, snk_exit = build_memctrl(builder, "snk", filters * oh * ow)
    builder.link(out_stage, snk_entry, "result", width=WORD_BITS)

    builder.input_port("in_data", [src_entry], protocol="mem")
    if not rom_weights:
        builder.input_port("in_weights", [weight_brams[0]], protocol="mem")
    builder.output_port("out_data", snk_exit, protocol="mem")
    builder.clock()

    return builder.finish(
        kind="conv_relu" if include_relu else "conv",
        params={
            "cin": cin,
            "height": height,
            "width": width,
            "kernel": kernel,
            "filters": filters,
            "stride": stride,
            "pad": pad,
            "rom_weights": rom_weights,
            "n_weights": n_weights,
        },
        parallelism={"pf": par.pf, "pk": par.pk},
        comb_depth=depth,
    )
