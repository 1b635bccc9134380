"""Design deltas: declarative post-route edits.

A :class:`DesignDelta` describes one engineering-change-order against a
routed design as a sequence of edits — cell swaps/resizes, placement
nudges, net rewires, whole-layer replacement from the component
database.  Application is **shared code**: both the incremental
:class:`~repro.eco.engine.EcoEngine` and the
:func:`~repro.eco.reference.eco_reference` oracle mutate their design
through :func:`apply_delta`, so the two can only diverge in what they do
*afterwards* (incremental reroute + session STA + shared-session DRC
versus full from-scratch reroute/STA/DRC) — which is exactly the surface
the oracle exists to check.

Rip-up scoping is likewise shared (:func:`affected_nets`): an edit
invalidates the routes of every unlocked data net whose driver or sink
geometry it changed, plus every net it rewired — and nothing else.
Locked nets (pre-implemented component internals) are never ripped;
a delta that would require it is rejected up front.

Every mutation records its inverse in an :class:`EcoUndo`, so an applied
delta can be reverted losslessly — original ``Cell``/``Net`` objects and
route *list identities* are restored, which the incremental STA session
detects and recompiles (see the net matching in
:meth:`repro.timing.graph.TimingGraph.sync`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..fabric.device import TILE_FOR_CELL, Device
from ..netlist.cell import Cell
from ..netlist.design import Design, DesignError

__all__ = [
    "EcoError",
    "CellSwap",
    "PlacementNudge",
    "NetRewire",
    "LayerReplace",
    "DesignDelta",
    "ApplyRecord",
    "EcoUndo",
    "apply_delta",
    "affected_nets",
    "check_delta_json",
    "delta_from_json",
]


class EcoError(DesignError):
    """A delta is malformed or illegal against the current design state."""


# -- edit kinds --------------------------------------------------------------


@dataclass(frozen=True)
class CellSwap:
    """Resize/retime one cell in place (``None`` keeps the old value).

    The cell object is *replaced* (timing attributes are immutable once
    registered with a timing graph), its placement and module tag are
    kept.  Routes stay valid — geometry is unchanged — so a pure swap
    rips nothing.
    """

    cell: str
    luts: int | None = None
    ffs: int | None = None
    comb_depth: int | None = None
    seq: bool | None = None


@dataclass(frozen=True)
class PlacementNudge:
    """Move one unlocked cell to a free legal site.

    Every unlocked data net touching the cell is ripped up and rerouted.
    """

    cell: str
    site: tuple[int, int]


@dataclass(frozen=True)
class NetRewire:
    """Replace the connectivity of one unlocked data net.

    ``None`` keeps the existing driver/sinks.  The net's routes are
    discarded (its geometry changed by definition).
    """

    net: str
    driver: str | None = None
    sinks: tuple[str, ...] | None = None


@dataclass(frozen=True)
class LayerReplace:
    """Swap a whole pre-implemented module instance for another checkpoint.

    *component* is an OOC checkpoint (e.g. ``database.fetch(signature)``
    or a re-built variant); a copy of it is relocated to the module's
    recorded stitch anchor (``design.metadata["anchors"]``) under the
    same instance names and adopted.  Boundary stitch nets keep their names and endpoints
    (the replacement must expose the same boundary cells) and are ripped
    for rerouting; the module's internal locked routes come from the
    checkpoint untouched.
    """

    module: str
    component: Design
    anchor: tuple[int, int] | None = None  # override the recorded anchor


Edit = CellSwap | PlacementNudge | NetRewire | LayerReplace


@dataclass(frozen=True)
class DesignDelta:
    """One named ECO: an ordered sequence of edits applied atomically."""

    name: str
    edits: tuple[Edit, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise EcoError("delta needs a non-empty name")
        for e in self.edits:
            if not isinstance(e, (CellSwap, PlacementNudge, NetRewire, LayerReplace)):
                raise EcoError(f"delta {self.name}: unknown edit kind {type(e).__name__}")


# -- undo --------------------------------------------------------------------


@dataclass
class EcoUndo:
    """Inverse operations for one applied delta, in application order."""

    ops: list[tuple] = field(default_factory=list)

    def apply(self, design: Design) -> None:
        """Revert the delta: restore saved objects, placements and routes.

        Restored nets/cells keep their original object and route-list
        identities; re-added entries land at the end of dict iteration
        order, where the incremental STA session recompiles them on its
        next sync.
        """
        for op in reversed(self.ops):
            kind = op[0]
            if kind == "cell_slot":          # swapped cell: same dict slot
                _, name, old = op
                design.cells[name] = old
            elif kind == "cell_place":        # nudged cell: same object
                _, name, placement = op
                design.cells[name].placement = placement
            elif kind == "net_state":         # rewired net: same object
                _, net, driver, sinks, routes = op
                net.driver = driver
                net.sinks = sinks
                net.routes = routes
            elif kind == "net_routes":        # ripped net: original route list
                _, net, routes = op
                net.routes = routes
            elif kind == "layer":
                _, removed_cells, removed_nets, new_cells, new_nets, clock_state = op
                for name in new_nets:
                    design.nets.pop(name, None)
                for name in new_cells:
                    design.cells.pop(name, None)
                for cell in removed_cells:
                    design.cells[cell.name] = cell
                for net in removed_nets:
                    design.nets[net.name] = net
                for cnet, sinks, routes in clock_state:
                    cnet.sinks = sinks
                    cnet.routes = routes
            elif kind == "metadata":
                _, key, old = op
                if old is None:
                    design.metadata.pop(key, None)
                else:
                    design.metadata[key] = old
            elif kind == "order":
                _, cells_order, nets_order = op
                restore_dict_order(design.cells, cells_order)
                restore_dict_order(design.nets, nets_order)
            else:  # pragma: no cover - defensive
                raise EcoError(f"unknown undo op {kind!r}")


def restore_dict_order(d: dict, order: list[str]) -> None:
    """Re-order *d* in place to match *order* (same key set assumed).

    Layer replacement re-adds surviving entries at the end of dict
    iteration; after an undo restores the original objects, this makes
    the revert byte-identical — same checkpoint serialization, same
    iteration-order tie-breaks — not merely equivalent.
    """
    for key in order:
        if key in d:
            d[key] = d.pop(key)


# -- application -------------------------------------------------------------


@dataclass
class ApplyRecord:
    """What one delta actually touched (drives rip-up scoping)."""

    delta: DesignDelta
    touched_cells: list[str] = field(default_factory=list)  # geometry changed
    rewired_nets: list[str] = field(default_factory=list)
    undo: EcoUndo = field(default_factory=EcoUndo)


def _require_cell(design: Design, name: str, delta: DesignDelta) -> Cell:
    cell = design.cells.get(name)
    if cell is None:
        raise EcoError(f"delta {delta.name}: unknown cell {name!r}")
    return cell


def _apply_cell_swap(design: Design, edit: CellSwap, rec: ApplyRecord) -> None:
    old = _require_cell(design, edit.cell, rec.delta)
    if old.locked:
        raise EcoError(
            f"delta {rec.delta.name}: cell {edit.cell} is locked (pre-implemented)"
        )
    pick = lambda new, cur: cur if new is None else new
    try:
        replacement = Cell(
            old.name,
            old.ctype,
            placement=old.placement,
            locked=False,
            luts=pick(edit.luts, old.luts),
            ffs=pick(edit.ffs, old.ffs),
            comb_depth=pick(edit.comb_depth, old.comb_depth),
            seq=pick(edit.seq, old.seq),
            module=old.module,
        )
    except ValueError as exc:
        raise EcoError(f"delta {rec.delta.name}: {exc}") from exc
    rec.undo.ops.append(("cell_slot", old.name, old))
    design.cells[old.name] = replacement  # same dict slot, new identity


def _apply_nudge(design: Design, edit: PlacementNudge, rec: ApplyRecord) -> None:
    cell = _require_cell(design, edit.cell, rec.delta)
    if cell.locked:
        raise EcoError(
            f"delta {rec.delta.name}: cell {edit.cell} is locked (pre-implemented)"
        )
    site = (int(edit.site[0]), int(edit.site[1]))
    device = rec._device
    if not device.in_bounds(*site):
        raise EcoError(f"delta {rec.delta.name}: site {site} out of bounds")
    if device.tile_type(site[0]) != TILE_FOR_CELL[cell.ctype]:
        raise EcoError(
            f"delta {rec.delta.name}: site {site} cannot host {cell.ctype} "
            f"(tile {device.tile_type_name(site[0])})"
        )
    if design.pblock is not None and not design.pblock.contains(*site):
        raise EcoError(f"delta {rec.delta.name}: site {site} escapes {design.pblock}")
    taken = {
        c.placement for c in design.cells.values() if c.is_placed and c is not cell
    }
    if site in taken:
        raise EcoError(f"delta {rec.delta.name}: site {site} is occupied")
    rec.undo.ops.append(("cell_place", cell.name, cell.placement))
    cell.placement = site
    rec.touched_cells.append(cell.name)


def _apply_rewire(design: Design, edit: NetRewire, rec: ApplyRecord) -> None:
    net = design.nets.get(edit.net)
    if net is None:
        raise EcoError(f"delta {rec.delta.name}: unknown net {edit.net!r}")
    if net.locked:
        raise EcoError(f"delta {rec.delta.name}: net {edit.net} is locked")
    if net.is_clock:
        raise EcoError(
            f"delta {rec.delta.name}: net {edit.net} is a clock (rewire via CTS)"
        )
    driver = net.driver if edit.driver is None else edit.driver
    sinks = list(net.sinks) if edit.sinks is None else list(edit.sinks)
    if driver is not None and driver not in design.cells:
        raise EcoError(f"delta {rec.delta.name}: unknown driver cell {driver!r}")
    for s in sinks:
        if s not in design.cells:
            raise EcoError(f"delta {rec.delta.name}: unknown sink cell {s!r}")
    rec.undo.ops.append(("net_state", net, net.driver, net.sinks, net.routes))
    net.driver = driver
    net.sinks = sinks
    net.routes = [None] * len(sinks)
    rec.rewired_nets.append(net.name)


def _apply_layer_replace(design: Design, edit: LayerReplace, rec: ApplyRecord) -> None:
    from ..rapidwright.module import RelocationError, relocate

    module = edit.module
    old_cells = [c for c in design.cells.values() if c.module == module]
    if not old_cells:
        raise EcoError(f"delta {rec.delta.name}: no module instance {module!r}")
    anchor = edit.anchor
    if anchor is None:
        recorded = design.metadata.get("anchors", {}).get(module)
        if recorded is None:
            raise EcoError(
                f"delta {rec.delta.name}: design records no stitch anchor for "
                f"{module!r}; pass LayerReplace(anchor=...)"
            )
        anchor = (int(recorded[0]), int(recorded[1]))

    try:
        placed = relocate(edit.component, rec._device, anchor, instance=module)
    except RelocationError as exc:
        raise EcoError(f"delta {rec.delta.name}: {exc}") from exc

    prefix = f"{module}/"
    old_names = {c.name for c in old_cells}
    new_names = set(placed.cells)

    # Pre-validate: every boundary net that survives must keep resolvable
    # endpoints, and every top-level port net the old instance provided
    # must exist again afterwards.
    internal = {n for n in design.nets if n.startswith(prefix)}
    for name, net in design.nets.items():
        if name in internal or net.is_clock:
            continue
        for endpoint in ([net.driver] if net.driver else []) + list(net.sinks):
            if endpoint in old_names and endpoint not in new_names:
                raise EcoError(
                    f"delta {rec.delta.name}: replacement for {module!r} lacks "
                    f"boundary cell {endpoint!r} (net {name})"
                )
    new_net_names = set(placed.nets)
    for port in design.ports.values():
        if port.net in internal and port.net not in new_net_names:
            raise EcoError(
                f"delta {rec.delta.name}: replacement for {module!r} lacks "
                f"boundary net {port.net!r} (port {port.name})"
            )

    # The replacement may use any site in the module's claimed region,
    # but nothing may have squatted on the exact sites it picked.
    foreign = {
        c.placement: c.name
        for c in design.cells.values()
        if c.is_placed and c.module != module
    }
    for cell in placed.cells.values():
        if cell.is_placed and cell.placement in foreign:
            raise EcoError(
                f"delta {rec.delta.name}: replacement cell {cell.name} "
                f"wants site {cell.placement}, occupied by "
                f"{foreign[cell.placement]!r}"
            )

    # Tear out the old instance: internal nets, cells, and its clock sinks.
    removed_nets = [design.nets.pop(n) for n in list(internal)]
    removed_cells = []
    for cell in old_cells:
        removed_cells.append(design.cells.pop(cell.name))
    clock_state = []
    clock_losses: list[tuple[int, str]] = []
    for net in design.nets.values():
        if not net.is_clock:
            continue
        stale = [i for i, s in enumerate(net.sinks) if s in old_names]
        if not stale:
            continue
        clock_state.append((net, net.sinks, net.routes))
        gone = set(stale)  # built once: the clock net has a sink per flop
        keep = [i for i in range(len(net.sinks)) if i not in gone]
        net.sinks = [net.sinks[i] for i in keep]
        net.routes = [net.routes[i] for i in keep]
        clock_losses.append((len(stale), net.name))

    # Move the replacement in: it already carries the instance names.
    portmap = design.adopt(placed)

    # The composition originally deleted the component's clock stubs and
    # any boundary port nets it bridged or left dangling; reproduce that.
    added_nets = [n for n in design.nets if n.startswith(prefix) and n not in internal]
    port_nets = {p.net for p in design.ports.values()}
    dropped = []
    for name in list(portmap.values()):
        if name in design.nets and name not in port_nets:
            del design.nets[name]
            dropped.append(name)
    for name in added_nets:
        net = design.nets.get(name)
        if net is not None and net.is_clock:
            del design.nets[name]
            dropped.append(name)

    # New sequential cells join the clock net the old instance used most.
    new_seq = [c.name for c in design.cells.values() if c.module == module and c.seq]
    if new_seq and clock_losses:
        clock_losses.sort(key=lambda t: (-t[0], t[1]))
        host = design.nets[clock_losses[0][1]]
        for s in new_seq:
            host.add_sink(s)

    new_cell_names = [c.name for c in design.cells.values() if c.module == module]
    final_new_nets = [
        n for n in design.nets
        if n.startswith(prefix) and n not in internal and n not in dropped
    ]
    rec.undo.ops.append(
        ("layer", removed_cells, removed_nets, new_cell_names, final_new_nets,
         clock_state)
    )
    rec.touched_cells.extend(sorted(old_names | set(new_cell_names)))


def apply_delta(design: Design, delta: DesignDelta, device: Device) -> ApplyRecord:
    """Apply *delta* to *design* in place; returns what it touched.

    Atomic: a validation failure raises :class:`EcoError` after rolling
    back every edit already applied, leaving the design untouched.  Both
    ECO engines share this function, so a delta mutates (or fails)
    identically against either.
    """
    rec = ApplyRecord(delta=delta)
    rec._device = device  # internal: validation needs the fabric
    try:
        for edit in delta.edits:
            if isinstance(edit, CellSwap):
                _apply_cell_swap(design, edit, rec)
            elif isinstance(edit, PlacementNudge):
                _apply_nudge(design, edit, rec)
            elif isinstance(edit, NetRewire):
                _apply_rewire(design, edit, rec)
            else:
                _apply_layer_replace(design, edit, rec)
    except EcoError:
        rec.undo.apply(design)
        raise
    return rec


def affected_nets(design: Design, record: ApplyRecord) -> list[str]:
    """Nets whose routes the delta invalidated, in design iteration order.

    Shared by the incremental engine and the reference oracle — the
    oracle's independence is in *re-deriving everything downstream* of
    this scope from scratch, not in re-guessing the scope (see
    DESIGN.md).  Locked and clock nets are never included.
    """
    touched = set(record.touched_cells)
    rewired = set(record.rewired_nets)
    out = []
    for name, net in design.nets.items():
        if net.is_clock or net.locked:
            continue
        if (
            name in rewired
            or (net.driver is not None and net.driver in touched)
            or any(s in touched for s in net.sinks)
        ):
            out.append(name)
    return out


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_NAME = (lambda v: isinstance(v, str), "a string")
_COUNT = (lambda v: _integer(v) and v >= 0, "a non-negative integer")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_SITE = (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_integer, v)),
         "a pair of integers")
_NAMES = (lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
          "a list of strings")

#: Per JSON op: its required fields, then every field with the shape
#: its value must have (``null`` is "not given").
_EDIT_FIELDS = {
    "swap": (("cell",), {"cell": _NAME, "luts": _COUNT, "ffs": _COUNT,
                         "comb_depth": _COUNT, "seq": _FLAG}),
    "nudge": (("cell", "site"), {"cell": _NAME, "site": _SITE}),
    "rewire": (("net",), {"net": _NAME, "driver": _NAME, "sinks": _NAMES}),
    "replace_layer": (("module",), {"module": _NAME, "seed": _COUNT, "anchor": _SITE}),
}


def check_delta_json(data) -> list:
    """The edits of the JSON delta *data*, each checked for its op, its
    required fields and every field's type and shape; a malformed
    description raises :class:`EcoError` naming the edit and the field."""
    if not isinstance(data, dict):
        raise EcoError(f"delta must be a JSON object, got {type(data).__name__}")
    described = data.get("edits", [])
    if not isinstance(described, list):
        raise EcoError(f"delta field 'edits' must be a list, got {described!r}")
    for i, e in enumerate(described):
        if not isinstance(e, dict) or "op" not in e:
            raise EcoError(f"edit #{i}: expected an object with an 'op' field")
        op = e["op"]
        if not isinstance(op, str) or op not in _EDIT_FIELDS:
            raise EcoError(f"edit #{i}: unknown op {op!r}")
        required, shapes = _EDIT_FIELDS[op]
        for key in required:
            if e.get(key) is None:
                raise EcoError(f"edit #{i} ({op}): missing field {key!r}")
        for key, (ok, want) in shapes.items():
            if e.get(key) is not None and not ok(e[key]):
                raise EcoError(f"edit #{i} ({op}): field {key!r} must be {want}, "
                               f"got {e[key]!r}")
    return described


def delta_from_json(data: dict, *, variant: Callable | None = None) -> DesignDelta:
    """Build a :class:`DesignDelta` from its JSON description.

    ``{"name": ..., "edits": [{"op": "swap"|"nudge"|"rewire"|"replace_layer",
    ...}]}``.  A ``replace_layer`` edit names a ``module`` and optionally a
    ``seed``; ``variant(module, seed)`` returns the module instance the name
    denotes and its replacement checkpoint, asked for once per edit, so two
    edits on one module can install different variants
    (:func:`repro.eco.run_eco` builds them with :func:`repro.eco.layer_variant`).

    Every edit is checked by :func:`check_delta_json` before any variant
    is built.
    """
    described = check_delta_json(data)
    edits: list[Edit] = []
    for i, e in enumerate(described):
        op = e["op"]
        if op == "swap":
            edits.append(CellSwap(
                e["cell"], luts=e.get("luts"), ffs=e.get("ffs"),
                comb_depth=e.get("comb_depth"), seq=e.get("seq"),
            ))
        elif op == "nudge":
            edits.append(PlacementNudge(e["cell"], tuple(e["site"])))
        elif op == "rewire":
            sinks = e.get("sinks")
            edits.append(NetRewire(
                e["net"], driver=e.get("driver"),
                sinks=tuple(sinks) if sinks is not None else None,
            ))
        else:
            module = e["module"]
            if variant is None:
                raise EcoError(
                    f"edit #{i}: no replacement component supplied for "
                    f"module {module!r}"
                )
            anchor = e.get("anchor")
            instance, checkpoint = variant(module, e.get("seed"))
            edits.append(LayerReplace(
                instance, checkpoint, anchor=tuple(anchor) if anchor is not None else None,
            ))
    return DesignDelta(str(data.get("name", "eco")), tuple(edits))
