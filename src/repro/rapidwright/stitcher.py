"""Architecture composition (paper Algorithm 1).

BFS over the component graph: each component is fetched from the
checkpoint database, relocated to its assigned anchor, instantiated into
the top-level design with placement and routing locked, and stitched to
its neighbours by creating new inter-component nets between partition
pins.  The result is a *partially routed* design — only the stitch nets
are unrouted, ready for the final inter-component routing pass.

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

from collections import deque
from dataclasses import dataclass, field

from ..cnn.graph import Component
from ..fabric.device import Device
from ..netlist.design import Design, DesignError
from ..netlist.net import Port
from ..netlist.stitch import (
    bridge_ports,
    expose_weight_ports,
    merge_clock_nets,
    prune_dangling_nets,
)
from .database import ComponentDatabase
from .module import relocate, relocate_reference

__all__ = [
    "StitchRecord",
    "StitchResult",
    "compose",
    "compose_reference",
    "compose_shared",
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
) -> StitchResult:
    """Compose the accelerator from pre-built checkpoints.

    *components* must form a linear chain in dataflow order (the stock
    stream architectures); *anchors* maps component instance names to
    relocation anchors chosen by the component placer.
    """

    def instance(top: Design, comp: Component, anchor: tuple[int, int]):
        module = database.fetch(
            comp.signature, anchor, device=device, instance=comp.name
        )
        return module, top.adopt(module)

    return _compose(name, components, device, anchors, instance)


def compose_reference(
    name: str,
    components: list[Component],
    database: ComponentDatabase,
    device: Device,
    anchors: dict[str, tuple[int, int]],
) -> StitchResult:
    """Reference composition: fetch, relocate through the checkpoint
    codec, then clone-and-rename into the top — three copies of every
    component where :func:`compose` builds one."""

    def instance(top: Design, comp: Component, anchor: tuple[int, int]):
        module = relocate_reference(database.get(comp.signature), device, anchor)
        return module, top.instantiate(module, prefix=comp.name, module=comp.name)

    return _compose(name, components, device, anchors, instance)


def _compose(name, components, device, anchors, instance) -> StitchResult:
    """Algorithm 1 over ``instance(top, comp, anchor)``, which adds one
    component's cells and nets to *top* under the ``"{comp.name}/"``
    prefix and returns the anchored module (for its pblock and OOC
    record) and the port-to-net map."""
    top = Design(name)
    result = StitchResult(top=top)

    # Algorithm 1: BFS over the component chain.
    queue = deque(components)
    prev_out: str | None = None
    first_in: str | None = None
    n_weight_ports = 0
    # Fabric regions claimed by relocated components: ECO layer swaps may
    # place anywhere inside them, so CTS and other site allocators must
    # keep out (recorded in top.metadata["footprints"]).
    footprints: dict[str, list[int]] = {}
    while queue:
        comp = queue.popleft()
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
        if first_in is None:
            first_in = portmap["in_data"]
        if prev_out is not None:
            net = bridge_ports(top, prev_out, portmap["in_data"], hint=comp.name)
            result.stitch_nets.append(net.name)
        prev_out = portmap["out_data"]
        n_weight_ports = expose_weight_ports(top, comp.name, portmap, n_weight_ports)

    if first_in is None or prev_out is None:
        raise DesignError("cannot compose an empty component list")
    top.add_port(Port("in_data", "in", first_in, width=16, protocol="mem"))
    top.add_port(Port("out_data", "out", prev_out, width=16, protocol="mem"))
    merge_clock_nets(top)
    top.metadata.update(
        stitched=True,
        n_components=len(components),
        slowest_component_mhz=result.slowest_component_mhz,
        # Per-instance relocation anchors, JSON-shaped for the checkpoint
        # codec; repro.eco.LayerReplace resolves its target from these.
        anchors={r.name: [r.anchor[0], r.anchor[1]] for r in result.records},
        footprints=footprints,
    )
    result.pruned_nets = prune_dangling_nets(top)
    top.validate(device)
    return result


def compose_shared(
    name: str,
    components: list[Component],
    database: ComponentDatabase,
    device: Device,
    anchors: dict[str, tuple[int, int]],
    scheduler: Design,
) -> StitchResult:
    """Compose a *shared-component* accelerator (Q-CLE style).

    Instances with identical signatures time-multiplex one physical
    engine, as in Shen et al.'s Q < L convolutional-layer-engine
    partitioning the paper discusses (Sec. III): resources shrink to the
    unique-component set, latency grows to one pass per logical layer.
    The pre-implemented *scheduler* (a memory-management unit) routes
    feature maps between passes; every engine connects to it in a star.

    *anchors* must cover the unique component names plus ``"scheduler"``.
    """
    unique: dict[tuple, Component] = {}
    for comp in components:
        unique.setdefault(comp.signature, comp)

    top = Design(name)
    result = StitchResult(top=top)

    # Every instance is built once — from its columnar image, at its
    # anchor and under its instance names — and moved into the top.
    footprints: dict[str, list[int]] = {}
    sched = relocate(scheduler, device, anchors["scheduler"], instance="scheduler")
    if sched.pblock is not None:
        footprints["scheduler"] = [
            sched.pblock.col0, sched.pblock.row0,
            sched.pblock.col1, sched.pblock.row1,
        ]
    n_sched_cells = sched.n_cells
    sched_map = top.adopt(sched)
    sched_in_net = top.nets[sched_map["in_data"]]
    sched_out_net = top.nets[sched_map["out_data"]]
    sched_entry = sched_in_net.sinks[0]
    sched_exit = sched_out_net.driver
    del top.nets[sched_map["in_data"]]
    del top.nets[sched_map["out_data"]]
    result.records.append(
        StitchRecord(
            name="scheduler",
            signature=("scheduler",),
            anchor=anchors["scheduler"],
            fmax_ooc_mhz=sched.metadata.get("ooc", {}).get("fmax_mhz", 0.0),
            n_cells=n_sched_cells,
        )
    )

    n_weight_ports = 0
    for comp in unique.values():
        anchor = anchors.get(comp.name)
        if anchor is None:
            raise DesignError(f"no anchor assigned for shared component {comp.name}")
        module = database.fetch(
            comp.signature, anchor, device=device, instance=comp.name
        )
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
                n_cells=module.n_cells,
            )
        )
        portmap = top.adopt(module)
        # star stitching through the scheduler: engine <-> scheduler
        out_net = top.nets[portmap["out_data"]]
        in_net = top.nets[portmap["in_data"]]
        to_sched = top.connect(
            f"share__{comp.name}__to_sched", out_net.driver, [sched_entry], width=16
        )
        from_sched = top.connect(
            f"share__{comp.name}__from_sched", sched_exit, list(in_net.sinks), width=16
        )
        result.stitch_nets += [to_sched.name, from_sched.name]
        del top.nets[portmap["out_data"]]
        del top.nets[portmap["in_data"]]
        n_weight_ports = expose_weight_ports(top, comp.name, portmap, n_weight_ports)

    ext_in = top.connect("ext_in", None, [sched_entry], width=16)
    ext_out = top.connect("ext_out", sched_exit, [], width=16)
    top.add_port(Port("in_data", "in", ext_in.name, width=16, protocol="mem"))
    top.add_port(Port("out_data", "out", ext_out.name, width=16, protocol="mem"))
    merge_clock_nets(top)
    top.metadata.update(
        stitched=True,
        shared=True,
        n_components=len(components),
        n_physical=len(unique),
        passes=len(components),
        slowest_component_mhz=result.slowest_component_mhz,
        anchors={r.name: [r.anchor[0], r.anchor[1]] for r in result.records},
        footprints=footprints,
    )
    result.pruned_nets = prune_dangling_nets(top)
    top.validate(device)
    return result
