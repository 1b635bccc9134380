"""Architecture composition (paper Algorithm 1).

BFS over the component graph: each component is fetched from the
checkpoint database, relocated to its assigned anchor, instantiated into
the top-level design with placement and routing locked, and stitched to
its neighbours by creating new inter-component nets between partition
pins.  The graph is a chain (the stream architectures) or, for the
shared architecture, a star around a hub component (the scheduler).
The result is a *partially routed* design — only the stitch nets are
unrouted, ready for the final inter-component routing pass.

:func:`compose` does not touch the locked logic at all: every component
is fetched as a placed block — the database's columnar image plus its
anchor and instance name — and adopted into the top design as that
block, so the top is the blocks plus the stitch nets and the merged
clock net that really are new, and no cell or net object is built until
somebody asks the design for one (:class:`~repro.netlist.design.Design`).
:func:`compose_reference` keeps the clone-per-step composition
(relocate the checkpoint, then copy-and-rename it into the top) as the
oracle the single pass is asserted bit-identical to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cnn.graph import Component
from ..fabric.device import Device
from ..netlist.design import Design, DesignError
from ..netlist.net import WORD_BITS, Port
from ..netlist.stitch import (
    bridge_ports,
    expose_weight_ports,
    merge_clock_nets,
    prune_dangling_nets,
)
from .database import ComponentDatabase
from .module import relocate_reference

__all__ = [
    "StitchRecord",
    "StitchResult",
    "compose",
    "compose_reference",
    "unique_components",
]

#: Reference implementation the single-pass :func:`compose` is asserted
#: bit-identical to (oracle contract, lint rules ORC-001..003).
ORACLE = "repro.rapidwright.stitcher.compose_reference"


@dataclass
class StitchRecord:
    """Per-instance bookkeeping of the composition."""

    name: str
    signature: tuple
    anchor: tuple[int, int]
    fmax_ooc_mhz: float
    n_cells: int


@dataclass
class StitchResult:
    """The stitched top design plus records."""

    top: Design
    records: list[StitchRecord] = field(default_factory=list)
    stitch_nets: list[str] = field(default_factory=list)
    #: Dangling boundary nets swept up after stitching (normally empty;
    #: non-empty means a component port went unbridged).
    pruned_nets: list[str] = field(default_factory=list)

    @property
    def slowest_component_mhz(self) -> float:
        """The paper: "the frequency of the pre-built design is upper
        bounded by the slowest component in the design"."""
        return min((r.fmax_ooc_mhz for r in self.records), default=0.0)


def compose(
    name: str,
    components: list[Component],
    database: ComponentDatabase,
    device: Device,
    anchors: dict[str, tuple[int, int]],
    *,
    hub: Component | None = None,
) -> StitchResult:
    """Compose the accelerator from pre-built checkpoints.

    *components* must form a linear chain in dataflow order (the stock
    stream architectures); *anchors* maps component instance names to
    relocation anchors chosen by the component placer.

    With a *hub* (the pre-implemented scheduler, a memory-management
    unit) the accelerator is *shared*, Q-CLE style: instances with
    identical signatures time-multiplex one physical engine, as in Shen
    et al.'s Q < L convolutional-layer-engine partitioning the paper
    discusses (Sec. III) — resources shrink to the unique-component set,
    latency grows to one pass per logical layer.  The instances are then
    :func:`unique_components` star-stitched through the hub, which
    routes feature maps between passes.
    """

    def instance(top: Design, comp: Component, anchor: tuple[int, int]):
        module = database.fetch(
            comp.signature, anchor, device=device, instance=comp.name
        )
        return module, top.adopt(module)

    return _compose(name, components, device, anchors, instance, hub)


def compose_reference(
    name: str,
    components: list[Component],
    database: ComponentDatabase,
    device: Device,
    anchors: dict[str, tuple[int, int]],
    *,
    hub: Component | None = None,
) -> StitchResult:
    """Reference composition: fetch, relocate through the checkpoint
    codec, then clone-and-rename into the top — three copies of every
    component where :func:`compose` builds one."""

    def instance(top: Design, comp: Component, anchor: tuple[int, int]):
        module = relocate_reference(database.get(comp.signature), device, anchor)
        return module, top.instantiate(module, prefix=comp.name, module=comp.name)

    return _compose(name, components, device, anchors, instance, hub)


def unique_components(components: list[Component]) -> list[Component]:
    """The first component of each signature, in dataflow order: the
    physical engines of the shared architecture."""
    unique: dict[tuple, Component] = {}
    for comp in components:
        unique.setdefault(comp.signature, comp)
    return list(unique.values())


def _compose(name, components, device, anchors, instance, hub) -> StitchResult:
    """Algorithm 1 over ``instance(top, comp, anchor)``, which adds one
    component's cells and nets to *top* under the ``"{comp.name}/"``
    prefix and returns the anchored module (for its pblock and OOC
    record) and the port-to-net map: a chain, or with a *hub* a star."""
    top = Design(name)
    result = StitchResult(top=top)
    n_weight_ports = 0
    # Fabric regions claimed by relocated components: ECO layer swaps may
    # place anywhere inside them, so CTS and other site allocators must
    # keep out (recorded in top.metadata["footprints"]).
    footprints: dict[str, list[int]] = {}

    def add(comp: Component) -> dict[str, str]:
        nonlocal n_weight_ports
        try:
            anchor = anchors[comp.name]
        except KeyError:
            raise DesignError(f"no anchor assigned for component {comp.name}") from None
        n_before = top.n_cells
        module, portmap = instance(top, comp, anchor)
        if module.pblock is not None:
            footprints[comp.name] = [
                module.pblock.col0, module.pblock.row0,
                module.pblock.col1, module.pblock.row1,
            ]
        result.records.append(
            StitchRecord(
                name=comp.name,
                signature=comp.signature,
                anchor=anchor,
                fmax_ooc_mhz=module.metadata.get("ooc", {}).get("fmax_mhz", 0.0),
                n_cells=top.n_cells - n_before,
            )
        )
        n_weight_ports = expose_weight_ports(top, comp.name, portmap, n_weight_ports)
        return portmap

    if hub is None:
        # Algorithm 1: BFS over the component chain, i.e. dataflow order.
        ext_in: str | None = None
        ext_out: str | None = None
        for comp in components:
            portmap = add(comp)
            if ext_in is None:
                ext_in = portmap["in_data"]
            if ext_out is not None:
                net = bridge_ports(top, ext_out, portmap["in_data"], hint=comp.name)
                result.stitch_nets.append(net.name)
            ext_out = portmap["out_data"]
        if ext_in is None or ext_out is None:
            raise DesignError("cannot compose an empty component list")
        shape = {"n_components": len(components)}
    else:
        # The star: every engine streams into the hub's entry cell and is
        # fed by its exit cell, and so does the outside world.
        hub_map = add(hub)
        entry = top.net_pins(hub_map["in_data"])[1][0]
        exit_ = top.net_pins(hub_map["out_data"])[0]
        top.remove_net(hub_map["in_data"])
        top.remove_net(hub_map["out_data"])
        engines = unique_components(components)
        for comp in engines:
            portmap = add(comp)
            driver = top.net_pins(portmap["out_data"])[0]
            sinks = top.net_pins(portmap["in_data"])[1]
            to_sched = top.connect(f"share__{comp.name}__to_sched", driver, [entry],
                                   width=WORD_BITS)
            from_sched = top.connect(f"share__{comp.name}__from_sched", exit_, sinks,
                                     width=WORD_BITS)
            result.stitch_nets += [to_sched.name, from_sched.name]
            top.remove_net(portmap["out_data"])
            top.remove_net(portmap["in_data"])
        ext_in = top.connect("ext_in", None, [entry], width=WORD_BITS).name
        ext_out = top.connect("ext_out", exit_, [], width=WORD_BITS).name
        shape = {"shared": True, "n_components": len(components),
                 "n_physical": len(engines), "passes": len(components)}

    top.add_port(Port("in_data", "in", ext_in, width=WORD_BITS, protocol="mem"))
    top.add_port(Port("out_data", "out", ext_out, width=WORD_BITS, protocol="mem"))
    merge_clock_nets(top)
    top.metadata.update(
        stitched=True,
        **shape,
        slowest_component_mhz=result.slowest_component_mhz,
        # Per-instance relocation anchors, JSON-shaped for the checkpoint
        # codec; repro.eco.LayerReplace resolves its target from these.
        anchors={r.name: [r.anchor[0], r.anchor[1]] for r in result.records},
        footprints=footprints,
    )
    result.pruned_nets = prune_dangling_nets(top)
    top.validate(device)
    return result
