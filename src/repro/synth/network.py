"""Flat full-network synthesis.

Builds the monolithic accelerator netlist the *baseline* (vendor-tool)
flow compiles: every component engine instantiated into one top design,
stream-connected layer by layer (the "classic stream-like architecture"
the paper compares against).

Component designs are generated once per unique signature and cloned per
instance — the same replication the pre-implemented flow later exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cnn.graph import Component, DFG, group_components
from ..netlist.design import Design
from ..netlist.net import WORD_BITS, Port
from ..netlist.stitch import bridge_ports, expose_weight_ports, merge_clock_nets
from .generator import generate_component

__all__ = ["NetworkSynthesis", "synthesize_network"]


@dataclass
class NetworkSynthesis:
    """Result of flat synthesis.

    Attributes
    ----------
    top:
        The flat, unplaced top-level design.
    components:
        The ordered component list (grouping of the DFG).
    unique_designs:
        signature -> generated component design (the reuse set).
    instance_of:
        component name -> signature key, mapping instances to designs.
    """

    top: Design
    components: list[Component]
    unique_designs: dict[tuple, Design] = field(default_factory=dict)
    instance_of: dict[str, tuple] = field(default_factory=dict)

    @property
    def reuse_factor(self) -> float:
        """Instances per unique checkpoint (>1 means replication)."""
        if not self.unique_designs:
            return 0.0
        return len(self.components) / len(self.unique_designs)


#: Fraction of a component's slices replicated as glue when it is
#: synthesized monolithically (cross-boundary control duplication).
FLAT_GLUE_SLICES = 0.05
#: Fraction of extra BRAM the monolithic tool inserts for buffering on
#: storage-heavy components.
FLAT_BRAM_INSERT = 0.03


def _add_flat_overhead(top: Design, prefix: str, sub: Design, portmap: dict[str, str]) -> None:
    """Attach monolithic-synthesis glue to one instantiated component."""
    n_slices = sum(1 for c in sub.cells.values() if c.ctype == "SLICE")
    n_bram = sum(1 for c in sub.cells.values() if c.ctype == "RAMB36")
    glue_count = int(n_slices * FLAT_GLUE_SLICES)
    out_net = top.nets[portmap["out_data"]]
    anchor = out_net.driver
    prev = anchor
    for i in range(glue_count):
        name = f"{prefix}/glue[{i}]"
        top.new_cell(name, "SLICE", luts=8, ffs=10, comb_depth=1, module=prefix)
        top.connect(f"{prefix}/glue_net{i}", prev, [name], width=8)
        prev = name
    for i in range(int(n_bram * FLAT_BRAM_INSERT)):
        name = f"{prefix}/bufbram[{i}]"
        top.new_cell(name, "RAMB36", module=prefix)
        top.connect(f"{prefix}/bufbram_net{i}", prev or anchor, [name], width=WORD_BITS)


def synthesize_network(
    dfg: DFG,
    *,
    granularity: str = "layer",
    rom_weights: bool = True,
) -> NetworkSynthesis:
    """Synthesize the flat accelerator netlist for *dfg*.

    The linear component chain is stream-stitched: each component's
    ``out_data`` feeds the next component's ``in_data``; off-chip weight
    ports (``rom_weights=False``) are promoted to the top level.

    Each instance carries the glue the paper observes in monolithic
    compilation (Sec. V-C): on the flat design the vendor tool replicates
    control and inserts buffering/BRAM it avoids when optimizing each
    component in isolation.  The pre-implemented flow assembles the bare
    component netlists, so it never pays this overhead — the source of
    Table II's resource advantage.
    """
    components = group_components(dfg, granularity)
    if not components:
        raise ValueError(f"network {dfg.name}: no components to synthesize")

    unique: dict[tuple, Design] = {}
    instance_of: dict[str, tuple] = {}
    for comp in components:
        if comp.signature not in unique:
            unique[comp.signature] = generate_component(comp, rom_weights=rom_weights)
        instance_of[comp.name] = comp.signature

    top = Design(f"{dfg.name}_{granularity}_top")
    prev_out: str | None = None
    first_in: str | None = None
    n_weight_ports = 0
    for comp in components:
        sub = unique[comp.signature]
        portmap = top.instantiate(sub, prefix=comp.name, module=comp.name)
        _add_flat_overhead(top, comp.name, sub, portmap)
        if first_in is None:
            first_in = portmap["in_data"]
        if prev_out is not None:
            bridge_ports(top, prev_out, portmap["in_data"], hint=comp.name)
        prev_out = portmap["out_data"]
        n_weight_ports = expose_weight_ports(top, comp.name, portmap, n_weight_ports)

    top.add_port(Port("in_data", "in", first_in, width=WORD_BITS, protocol="mem"))
    top.add_port(Port("out_data", "out", prev_out, width=WORD_BITS, protocol="mem"))
    merge_clock_nets(top)
    top.metadata.update(
        network=dfg.name,
        granularity=granularity,
        n_components=len(components),
        n_unique=len(unique),
    )
    top.validate()
    return NetworkSynthesis(
        top=top, components=components, unique_designs=unique, instance_of=instance_of
    )
