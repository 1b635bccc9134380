"""Component-to-netlist dispatch.

Maps a :class:`repro.cnn.graph.Component` (one or more fused DFG nodes)
to a generated netlist, including multi-conv "block" components used at
the coarser VGG granularity (paper Fig. 7/8).
"""

from __future__ import annotations

from ..cnn.graph import Component, LayerNode
from ..netlist.design import Design
from ..netlist.stitch import bridge_ports, merge_clock_nets
from .conv import gen_conv
from .fc import gen_fc
from .memctrl import gen_memctrl
from .pool import gen_pool
from .relu import gen_relu
from .resources import (
    addr_bits_for,
    conv_resources,
    fc_resources,
    memctrl_resources,
    pool_resources,
    relu_resources,
    slices_for,
)

__all__ = ["estimated_cells", "generate_component", "generate_block"]


def _conv_design(node: LayerNode, include_relu: bool, rom_weights: bool) -> Design:
    layer = node.layer
    cin, h, w = node.in_shape
    return gen_conv(
        cin,
        h,
        w,
        layer.kernel,
        layer.filters,
        stride=layer.stride,
        pad=layer.pad_amount(node.in_shape),
        rom_weights=rom_weights,
        include_relu=include_relu,
        name=f"{layer.kind}_{node.name}",
    )


def _pool_design(node: LayerNode, include_relu: bool) -> Design:
    layer = node.layer
    c, h, w = node.in_shape
    return gen_pool(
        c, h, w, layer.size, stride=layer.eff_stride, include_relu=include_relu,
        name=f"pool_{node.name}",
    )


def _fc_design(node: LayerNode, include_relu: bool, rom_weights: bool) -> Design:
    layer = node.layer
    return gen_fc(
        node.in_shape[0],
        layer.units,
        rom_weights=rom_weights,
        include_relu=include_relu,
        name=f"fc_{node.name}",
    )


def generate_component(comp: Component, *, rom_weights: bool = True) -> Design:
    """Generate the netlist for one component.

    ``rom_weights`` selects LeNet-style hardcoded ROM coefficients versus
    VGG-style off-chip streaming.  The component signature is recorded in
    metadata so the checkpoint database can key on it.
    """
    members = comp.members
    kinds = [m.kind for m in members]
    has_relu = "relu" in kinds
    stages = [m for m in members if m.kind in ("conv", "pool", "fc")]

    if comp.kind == "memctrl":  # the shared architecture's scheduler
        design = gen_memctrl(comp.signature[1], name="shared_scheduler")
    elif not members:
        raise ValueError(f"component {comp.name} has no member nodes")
    elif not stages:
        if has_relu:
            design = gen_relu(members[0].in_shape[0], name=f"relu_{comp.name}")
        else:
            raise ValueError(f"component {comp.name}: nothing to generate from {kinds}")
    elif len(stages) == 1:
        node = stages[0]
        if node.kind == "conv":
            design = _conv_design(node, has_relu, rom_weights)
        elif node.kind == "pool":
            design = _pool_design(node, has_relu)
        else:
            design = _fc_design(node, has_relu, rom_weights)
    else:
        design = generate_block(comp, rom_weights=rom_weights)

    design.metadata["component"] = {
        "name": comp.name,
        "kind": comp.kind,
        "signature": repr(comp.signature),
        "nodes": list(comp.nodes),
        "macs": comp.macs,
        "weights": comp.weights,
        "in_shape": list(comp.in_shape),
        "out_shape": list(comp.out_shape),
    }
    return design


def estimated_cells(comp: Component, *, rom_weights: bool = True) -> int:
    """About how many cells :func:`generate_component` makes of *comp*:
    the slices, DSPs and BRAMs of its stages' budgets
    (:mod:`repro.synth.resources`), known before anything is generated —
    what a library build uses to start its longest builds first."""
    budgets = []
    if comp.kind == "memctrl":
        budgets.append(memctrl_resources(addr_bits_for(comp.signature[1])))
    for node in comp.members:
        layer = node.layer
        if node.kind == "conv":
            cin, _h, w = node.in_shape
            k, pad = layer.kernel, layer.pad_amount(node.in_shape)
            n_weights = k * k * cin * layer.filters + layer.filters
            budget = conv_resources(cin, w, k, layer.filters, n_weights, rom_weights,
                                    out_width=(w + 2 * pad - k) // layer.stride + 1)
        elif node.kind == "pool":
            budget = pool_resources(node.in_shape[0], layer.size, node.in_shape[2])
        elif node.kind == "fc":
            n_in = node.in_shape[0]
            budget = fc_resources(n_in, layer.units, n_in * layer.units + layer.units,
                                  rom_weights)
        elif node.kind == "relu":
            budgets.append(relu_resources(node.in_shape[0]))
            continue
        else:
            continue
        budgets.append(budget.totals())
    return sum(slices_for(b["LUT"], b["FF"]) + b["DSP48E2"] + b["RAMB36"] for b in budgets)


def generate_block(comp: Component, *, rom_weights: bool = True) -> Design:
    """Generate a multi-stage component (e.g. a VGG conv block) by moving
    the member stage engines into one design and stitching them."""
    stages = [m for m in comp.members if m.kind in ("conv", "pool", "fc")]
    if len(stages) < 2:
        raise ValueError(f"block component {comp.name} needs >= 2 stages")
    relu_after = _relu_after_map(comp.members)

    top = Design(f"block_{comp.name}")
    prev_out: str | None = None
    first_in: str | None = None
    weight_ins: list[str] = []
    for idx, node in enumerate(stages):
        if node.kind == "conv":
            sub = _conv_design(node, relu_after.get(node.name, False), rom_weights)
        elif node.kind == "pool":
            sub = _pool_design(node, relu_after.get(node.name, False))
        else:
            sub = _fc_design(node, relu_after.get(node.name, False), rom_weights)
        # the stage design exists only to become part of this block:
        # name it as an instance and move it in, no clone
        sub.prefix_names(f"s{idx}_{node.name}")
        portmap = top.adopt(sub)
        if first_in is None:
            first_in = portmap["in_data"]
        if "in_weights" in portmap:
            weight_ins.append(portmap["in_weights"])
        if prev_out is not None:
            bridge_ports(top, prev_out, portmap["in_data"], hint=f"blk{idx}")
        prev_out = portmap["out_data"]

    from ..netlist.net import WORD_BITS, Port  # local import to avoid cycle at module load

    top.add_port(Port("in_data", "in", first_in, width=WORD_BITS, protocol="mem"))
    top.add_port(Port("out_data", "out", prev_out, width=WORD_BITS, protocol="mem"))
    for i, wnet in enumerate(weight_ins):
        top.add_port(Port(f"in_weights{i}" if i else "in_weights", "in", wnet,
                          width=WORD_BITS, protocol="mem"))
    merge_clock_nets(top)
    pf = max(
        (m.layer.filters for m in stages if m.kind == "conv"),
        default=16,
    )
    top.metadata.update(
        kind=comp.kind,
        params={"stages": [m.name for m in stages]},
        parallelism={"pf": min(pf, 48), "pk": 3},
        comb_depth=max(2, *(len(stages),)),
    )
    top.validate()
    return top


def _relu_after_map(members: list[LayerNode]) -> dict[str, bool]:
    """Which stage nodes are immediately followed by a fused ReLU."""
    out: dict[str, bool] = {}
    prev_stage: str | None = None
    for node in members:
        if node.kind in ("conv", "pool", "fc"):
            prev_stage = node.name
            out[node.name] = False
        elif node.kind == "relu" and prev_stage is not None:
            out[prev_stage] = True
    return out
