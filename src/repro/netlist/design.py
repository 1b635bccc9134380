"""The Design container: a logical + physical netlist.

A design holds cells, nets and boundary ports, plus optional physical
state (placements, routes, a pblock constraint).  It is the unit the flows
pass around — the Python analogue of a Vivado design checkpoint held in
memory by RapidWright.
"""

from __future__ import annotations

from collections import Counter

from ..fabric.device import Device
from ..fabric.pblock import PBlock
from .cell import Cell
from .net import Net, Port

__all__ = ["Design", "DesignError"]


class DesignError(ValueError):
    """Raised when a design violates a structural invariant.

    When the failure came from a DRC-backed check (:meth:`Design.validate`,
    strict flow gates), ``violations`` carries every
    :class:`repro.drc.Violation` behind it — not just the first one.
    Plain string raises leave it empty.
    """

    def __init__(self, message: str = "", violations: list | None = None) -> None:
        super().__init__(message)
        self.violations = list(violations or [])


class Design:
    """Mutable logical/physical netlist.

    Attributes
    ----------
    name:
        Design name.
    cells / nets / ports:
        Name-keyed containers.
    pblock:
        Optional :class:`PBlock` every placement must respect.
    metadata:
        Free-form dict; flows record achieved Fmax, component parameters,
        lock state, etc.
    """

    def __init__(self, name: str, pblock: PBlock | None = None) -> None:
        self.name = name
        self.cells: dict[str, Cell] = {}
        self.nets: dict[str, Net] = {}
        self.ports: dict[str, Port] = {}
        self.pblock = pblock
        self.metadata: dict = {}

    # -- construction -----------------------------------------------------

    def add_cell(self, cell: Cell) -> Cell:
        if cell.name in self.cells:
            raise DesignError(f"duplicate cell {cell.name!r} in design {self.name}")
        self.cells[cell.name] = cell
        return cell

    def new_cell(self, name: str, ctype: str, **kwargs) -> Cell:
        return self.add_cell(Cell(name, ctype, **kwargs))

    def add_net(self, net: Net) -> Net:
        if net.name in self.nets:
            raise DesignError(f"duplicate net {net.name!r} in design {self.name}")
        self.nets[net.name] = net
        return net

    def connect(self, name: str, driver: str | None, sinks: list[str], **kwargs) -> Net:
        """Create and register a net in one call."""
        return self.add_net(Net(name, driver, sinks, **kwargs))

    def add_port(self, port: Port) -> Port:
        if port.name in self.ports:
            raise DesignError(f"duplicate port {port.name!r} in design {self.name}")
        if port.net not in self.nets:
            raise DesignError(f"port {port.name!r} references unknown net {port.net!r}")
        self.ports[port.name] = port
        return port

    # -- queries -----------------------------------------------------------

    def cells_of_type(self, ctype: str) -> list[Cell]:
        return [c for c in self.cells.values() if c.ctype == ctype]

    def cell_type_counts(self) -> Counter:
        return Counter(c.ctype for c in self.cells.values())

    def resource_usage(self) -> dict[str, int]:
        """Total resources consumed by all cells (Table II accounting)."""
        usage: Counter = Counter()
        for cell in self.cells.values():
            usage.update(cell.resources())
        return dict(usage)

    def site_demand(self) -> dict[str, int]:
        """Site counts needed to place the design (pblock sizing)."""
        return {ctype: count for ctype, count in self.cell_type_counts().items()}

    def data_nets(self) -> list[Net]:
        return [n for n in self.nets.values() if not n.is_clock]

    def unrouted_nets(self) -> list[Net]:
        """Data nets still needing fabric routing.

        Nets without a cell driver are boundary nets fed by a top-level
        port (off-chip I/O) — they route through pads, not fabric wires,
        and are excluded here.
        """
        return [
            n
            for n in self.data_nets()
            if n.sinks and n.driver is not None and not n.is_routed
        ]

    @property
    def is_fully_placed(self) -> bool:
        return all(c.is_placed for c in self.cells.values())

    @property
    def is_fully_routed(self) -> bool:
        return not self.unrouted_nets()

    def modules(self) -> list[str]:
        """Names of module instances present (pre-implemented designs)."""
        seen: list[str] = []
        for cell in self.cells.values():
            if cell.module and cell.module not in seen:
                seen.append(cell.module)
        return seen

    def bounding_box(self) -> PBlock | None:
        """Smallest pblock covering all placed cells, or None if unplaced."""
        placed = [c.placement for c in self.cells.values() if c.is_placed]
        if not placed:
            return None
        cols = [p[0] for p in placed]
        rows = [p[1] for p in placed]
        return PBlock(min(cols), min(rows), max(cols), max(rows))

    # -- mutation helpers ----------------------------------------------------

    def lock_all(self) -> None:
        """Lock placement and routing of everything currently implemented."""
        for cell in self.cells.values():
            cell.locked = True
        for net in self.nets.values():
            if net.is_routed:
                net.locked = True

    def clear_placement(self, include_locked: bool = False) -> None:
        for cell in self.cells.values():
            if include_locked or not cell.locked:
                cell.placement = None

    def instantiate(self, sub: "Design", prefix: str, module: str | None = None) -> dict[str, str]:
        """Copy *sub*'s cells and nets into this design with *prefix*.

        Returns a mapping from the sub-design's port names to the
        corresponding net names in this design.  Cell ``module`` tags are
        set to *module* (default: *prefix*), which is how stitched designs
        remember component membership.
        """
        module = module or prefix
        rename = f"{prefix}/".__add__  # prefixes by concatenation, no python frame
        for cell in sub.cells.values():
            self.add_cell(cell.clone(name=rename(cell.name), module=module))
        for net in sub.nets.values():
            self.add_net(net.clone(name=rename(net.name), rename=rename))
        return {pname: rename(port.net) for pname, port in sub.ports.items()}

    def prefix_names(self, prefix: str, module: str | None = None) -> None:
        """Rename every cell, net, endpoint and port net to ``prefix/name``
        in place and tag the cells with *module* (default: *prefix*).

        What :meth:`instantiate` does to its copies, done to the objects
        themselves: for a design generated only to be handed to
        :meth:`adopt`, which then moves it in under its instance names
        without a clone.
        """
        module = module or prefix
        rename = f"{prefix}/".__add__
        cells: dict[str, Cell] = {}
        for cell in self.cells.values():
            cell.name = rename(cell.name)
            cell.module = module
            cells[cell.name] = cell
        nets: dict[str, Net] = {}
        for net in self.nets.values():
            net.name = rename(net.name)
            net.driver = rename(net.driver) if net.driver else None
            net.sinks = list(map(rename, net.sinks))
            nets[net.name] = net
        for port in self.ports.values():
            port.net = rename(port.net)
        self.cells, self.nets = cells, nets

    def adopt(self, sub: "Design") -> dict[str, str]:
        """Move *sub*'s cells and nets into this design without copying.

        The no-clone counterpart of :meth:`instantiate` for a *sub* that
        was materialized for this purpose, already carrying its instance
        prefix and ``module`` tags.  Ownership transfers: the objects
        live in this design from here on and *sub* is left empty, so
        nothing can edit them through the donor.  Returns the port-name
        to net-name map, like :meth:`instantiate`.
        """
        for mine, theirs, kind in (
            (self.cells, sub.cells, "cell"), (self.nets, sub.nets, "net"),
        ):
            if not mine.keys().isdisjoint(theirs):
                dup = next(name for name in theirs if name in mine)
                raise DesignError(f"duplicate {kind} {dup!r} in design {self.name}")
        self.cells.update(sub.cells)
        self.nets.update(sub.nets)
        sub.cells = {}
        sub.nets = {}
        return {pname: port.net for pname, port in sub.ports.items()}

    # -- validation -----------------------------------------------------------

    def validate(self, device: Device | None = None) -> None:
        """Check structural invariants; raise :class:`DesignError` on failure.

        * Net endpoints reference existing cells.
        * Input-port nets have no cell driver; all other nets do.
        * With *device*: placements in bounds, on matching tile types,
          inside the pblock when set, one cell per site.

        Backed by the fatal subset of the DRC registry
        (:func:`repro.drc.run_drc`): unlike the historical fail-fast
        checks, *every* fatal violation is collected and the raised
        error carries the full list as ``DesignError.violations``.
        """
        from ..drc import Severity, all_rules, run_drc

        categories = ("netlist",) if device is None else ("netlist", "placement")
        fatal_ids = [
            r.id
            for r in all_rules()
            if r.severity is Severity.FATAL and r.category in categories
        ]
        report = run_drc(self, device, rules=fatal_ids, gate="validate")
        fatal = report.failing(Severity.FATAL)
        if fatal:
            raise DesignError(
                "; ".join(f"[{v.rule_id}] {v.message}" for v in fatal),
                violations=fatal,
            )

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        usage = self.resource_usage()
        return {
            "name": self.name,
            "cells": len(self.cells),
            "nets": len(self.nets),
            "ports": len(self.ports),
            "placed": sum(1 for c in self.cells.values() if c.is_placed),
            "routed_nets": sum(1 for n in self.data_nets() if n.is_routed),
            "usage": usage,
        }

    def __repr__(self) -> str:
        return (
            f"<Design {self.name}: {len(self.cells)} cells, "
            f"{len(self.nets)} nets, {len(self.ports)} ports>"
        )
