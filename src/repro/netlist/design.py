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
from .block import Block, CellTable, sealed
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

    **Blocks + glue.**  A design is objects — unless it was fetched from
    the component database, or adopted such a fetch.  Then it is
    *block-backed*: an ordered list of placed :class:`~repro.netlist.
    block.Block` s (immutable columnar images, one per component
    instance) interleaved with the *glue* objects that really are new —
    stitch nets, the merged clock net, pipeline registers — and it has
    no ``cells`` / ``nets`` attribute yet.  The first access to either
    (``__getattr__`` of the private :class:`_BlockBacked` state, which an
    ordinary design is not in and never pays for) materializes every
    block once, in the dict order the object path
    would have produced, and drops the blocks: from then on the design
    is an ordinary one.  The two forms are never both reachable, so
    nothing can go stale.

    While it lasts, the construction methods (:meth:`add_cell`,
    :meth:`add_net`, :meth:`add_port`, :meth:`adopt`), the edit verbs
    (:meth:`net_pins`, :meth:`remove_net`, :meth:`remove_clock_nets`)
    and the bulk readers (:attr:`n_cells`, :meth:`cell_table`,
    :meth:`resource_usage`, :meth:`net_names_where`, :meth:`cell_parts`,
    :meth:`net_parts`, :meth:`loose_nets`, :meth:`placement_of`, ...)
    work on either form without flattening; everything else just uses
    ``cells`` / ``nets`` and pays for the objects it asked for.
    """

    def __init__(self, name: str, pblock: PBlock | None = None) -> None:
        self.name = name
        self.cells: dict[str, Cell] = {}
        self.nets: dict[str, Net] = {}
        self.ports: dict[str, Port] = {}
        self.pblock = pblock
        self.metadata: dict = {}

    @classmethod
    def pending(cls, frame: "Design", block: Block) -> "Design":
        """*frame* (name, pblock, metadata, ports set; no cells or nets)
        made a block-backed design over *block*: what
        :meth:`ComponentDatabase.fetch
        <repro.rapidwright.database.ComponentDatabase.fetch>` returns."""
        return _BlockBacked.over(frame, block)

    # -- readers and edit verbs that never ask a block for its objects -------
    #
    # Plain here; :class:`_BlockBacked` below overrides each of them for a
    # design that still holds placed blocks.  Flow stages that can read
    # columns call these instead of walking ``cells`` / ``nets``.

    @property
    def blocks(self) -> tuple[Block, ...]:
        """The placed blocks still held as columns (none, for objects)."""
        return ()

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_nets(self) -> int:
        return len(self.nets)

    def cell_parts(self) -> list:
        """The cells as ordered runs, each a :class:`Block` or a
        name-keyed dict of :class:`Cell` objects (for a flat design one
        run: ``cells`` itself).  Read-only views, not copies."""
        return [self.cells]

    def net_parts(self) -> list:
        """The nets as ordered runs, each a :class:`Block` (standing for
        its live nets) or a name-keyed dict of :class:`Net` objects."""
        return [self.nets]

    def cell_table(self) -> CellTable:
        """Site, type and ``seq`` columns over every cell, in order."""
        return CellTable(self.cell_parts())

    def net_names_where(self, *, driverless: bool | None = None,
                        clock: bool | None = None,
                        sinkless: bool | None = None) -> list[str]:
        """Names, in order, of the nets whose ``driver is None`` /
        ``is_clock`` / ``not sinks`` equal the flags given (``None``:
        either) — a column mask per block, one pass over the objects."""
        out: list[str] = []
        for part in self.net_parts():
            if type(part) is Block:
                out += part.net_names_where(
                    driverless=driverless, clock=clock, sinkless=sinkless)
            else:
                out += [
                    n.name for n in part.values()
                    if (driverless is None or (n.driver is None) == driverless)
                    and (clock is None or bool(n.is_clock) == clock)
                    and (sinkless is None or (not n.sinks) == sinkless)
                ]
        return out

    def seq_cell_names(self) -> list[str]:
        """Names of the sequential cells, in order (the clock net's sinks)."""
        out: list[str] = []
        for part in self.cell_parts():
            if type(part) is Block:
                out += part.seq_cell_names()
            else:
                out += [c.name for c in part.values() if c.seq]
        return out

    def seq_clock_net(self, name: str) -> Net:
        """A new clock net called *name* (not added yet) whose sinks are
        the sequential cells, in order."""
        return Net(name, None, self.seq_cell_names(), is_clock=True)

    def loose_nets(self) -> list[Net]:
        """The nets that exist as objects, in order — every net a router
        or pipeliner could change (a block's are all routed and locked)."""
        return list(self.nets.values())

    def loose_net(self, name: str) -> Net | None:
        """The net object called *name*; ``None`` for a net that is
        absent — or sits, routed and locked, in a block."""
        return self.nets.get(name)

    def clock_nets(self) -> list[Net]:
        """The clock nets, as objects."""
        return [n for n in self.nets.values() if n.is_clock]

    def has_net(self, name: str) -> bool:
        """``name in nets``."""
        return name in self.nets

    def unknown_cells(self, names) -> set[str]:
        """The members of the iterable *names* that name no cell of the design."""
        cells = self.cells
        return {n for n in names if n not in cells}

    def placement_of(self, name: str) -> tuple[int, int] | None:
        """``cells[name].placement`` (``KeyError`` for an unknown cell)."""
        return self.cells[name].placement

    def block_row(self, name: str, which: int) -> tuple[Block, int] | None:
        """``(block, row)`` of the cell (*which* 0) or live net (1) called
        *name* when a placed block holds it (``None``: glue, or absent)."""
        return None

    def net_pins(self, name: str) -> tuple[str | None, list[str], int]:
        """``(driver, sinks, width)`` of the net called *name* — the
        sinks as a fresh list (``KeyError`` for an unknown net)."""
        net = self.nets[name]
        return net.driver, list(net.sinks), net.width

    def remove_net(self, name: str) -> None:
        """``del nets[name]`` (``KeyError`` for an unknown net)."""
        del self.nets[name]

    def remove_cell(self, name: str) -> None:
        """``del cells[name]``."""
        del self.cells[name]

    def remove_clock_nets(self) -> None:
        """Delete every clock net."""
        for name in [n.name for n in self.nets.values() if n.is_clock]:
            del self.nets[name]

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
        if not self.has_net(port.net):
            raise DesignError(f"port {port.name!r} references unknown net {port.net!r}")
        self.ports[port.name] = port
        return port

    # -- queries -----------------------------------------------------------

    def cell_type_counts(self) -> Counter:
        return Counter(c.ctype for c in self.cells.values())

    def resource_usage(self) -> dict[str, int]:
        """Total resources consumed by all cells (Table II accounting),
        keys in the order a walk over ``cells`` first meets them; a placed
        block adds the totals its image keeps."""
        usage: Counter = Counter()
        for part in self.cell_parts():
            if type(part) is Block:
                usage.update(part.resource_usage())
            else:
                for cell in part.values():
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

    def instantiate(self, sub: "Design", prefix: str, module: str | None = None) -> dict[str, str]:
        """Copy *sub*'s cells and nets into this design with *prefix*.

        Returns a mapping from the sub-design's port names to the
        corresponding net names in this design.  Cell ``module`` tags are
        set to *module* (default: *prefix*), which is how stitched designs
        remember component membership.  Every net endpoint that names a
        cell of *sub* is that copy's own name object, not a second
        concatenation of it.
        """
        module = module or prefix
        renames = _Renames(f"{prefix}/", sub.cells)
        for cell in sub.cells.values():
            self.add_cell(cell.clone(name=renames[cell.name], module=module))
        rename, endpoint = renames.prefix.__add__, renames.__getitem__
        for net in sub.nets.values():
            self.add_net(net.clone(name=rename(net.name), rename=endpoint))
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
        renames = _Renames(f"{prefix}/", self.cells)
        cells: dict[str, Cell] = {}
        for cell in self.cells.values():
            cell.name = renames[cell.name]
            cell.module = module
            cells[cell.name] = cell
        rename, endpoint = renames.prefix.__add__, renames.__getitem__
        nets: dict[str, Net] = {}
        for net in self.nets.values():
            net.name = rename(net.name)
            net.driver = endpoint(net.driver) if net.driver else None
            net.sinks = list(map(endpoint, net.sinks))
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

        A *sub* straight from :meth:`ComponentDatabase.fetch
        <repro.rapidwright.database.ComponentDatabase.fetch>` — one
        untouched block — is moved as that block, not as objects, when
        this design is empty or already block-backed, the block's image
        is :func:`~repro.netlist.block.sealed` and no name of this
        design can collide with the instance prefix; this design is
        block-backed from then on.  In every other case *sub* is
        materialized (and this design flattened) by the lines below.
        """
        block = self._adoptable(sub)
        if block is not None:
            if type(self) is Design:  # empty: hold blocks from here on
                del self.cells, self.nets
                _BlockBacked.over(self)
            self._cell_parts.append(block)
            self._net_parts.append(block)
            self._blocks[block.instance] = block
            self._in_blocks = tuple(             # a name found in none may be the new block's
                {name: held for name, held in known.items() if held is not None}
                for known in self._in_blocks)
            del sub._cell_parts, sub._net_parts, sub._blocks
            sub.__class__ = Design
            sub.cells = {}
            sub.nets = {}
            return {pname: port.net for pname, port in sub.ports.items()}
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

    def _adoptable(self, sub: "Design") -> Block | None:
        """*sub*'s block when :meth:`adopt` may move it as one: *sub* is
        an untouched fetch of a sealed image, this design is empty."""
        block = sub._sole_block()
        if block is None or type(self) is not Design or self.cells or self.nets:
            return None
        return block

    def _sole_block(self) -> Block | None:
        return None

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
            f"<Design {self.name}: {self.n_cells} cells, "
            f"{self.n_nets} nets, {len(self.ports)} ports>"
        )


class _Renames(dict):
    """Old -> new name of every cell of one instance (*prefix* + old).

    Looking up any other name — an endpoint that names no cell — prefixes
    it on its own.  So a renamed endpoint is its cell's new name object:
    one string per name, not one per pin.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str, names) -> None:
        super().__init__(zip(names, map(prefix.__add__, names)))
        self.prefix = prefix

    def __missing__(self, name: str) -> str:
        return self.prefix + name


class _BlockBacked(Design):
    """A :class:`Design` while it still holds placed blocks (see there).

    Never constructed by callers and never seen as a type: a design
    *becomes* this — ``fetch`` returns one, an empty design that adopts
    one turns into one — and turns back into a plain :class:`Design` at
    the first access to ``cells`` / ``nets``, which is the only thing
    this class's :meth:`__getattr__` exists for.  (A subclass rather
    than a ``__getattr__`` on :class:`Design` itself, so that ordinary
    designs keep the interpreter's fast attribute path.)

    State: ``_cell_parts`` and ``_net_parts`` — ordered runs, each a
    :class:`Block` or a name-keyed dict of glue objects — ``_blocks``
    (instance name -> Block, for name lookups), and per kind (cells,
    nets) ``_glue`` — the glue run holding each glue name — and
    ``_in_blocks``, what each other name asked for resolved to
    (:meth:`_find`); no ``cells`` / ``nets``.
    """

    @classmethod
    def over(cls, frame: Design, *blocks: Block) -> Design:
        """*frame* (name, pblock, metadata and ports set; no ``cells``
        or ``nets``) made block-backed over *blocks*."""
        frame._cell_parts = list(blocks)
        frame._net_parts = list(blocks)
        frame._blocks = {block.instance: block for block in blocks}
        frame._glue = ({}, {})
        frame._in_blocks = ({}, {})
        frame.__class__ = cls
        return frame

    def __getattr__(self, name: str):
        if name not in ("cells", "nets"):
            raise AttributeError(f"'Design' object has no attribute {name!r}")
        state = self.__dict__
        del state["_glue"], state["_in_blocks"]
        built = {block: block.materialize() for block in state.pop("_blocks").values()}
        for part in state["_net_parts"]:
            if type(part) is dict:
                for net in part.values():
                    if type(net) is _BlockClock:
                        net.name_cells(built)
        for attr, which in (("cells", 0), ("nets", 1)):
            merged: dict = {}
            for part in state.pop(f"_{attr[:-1]}_parts"):
                merged.update(built[part][which] if type(part) is Block else part)
            state[attr] = merged
        self.__class__ = Design
        return state[name]

    def __reduce_ex__(self, protocol):
        self.cells  # copies and pickles are of the objects: flatten first
        return object.__reduce_ex__(self, protocol)

    # -- lookups -------------------------------------------------------------

    def _find(self, name: str, which: int) -> dict | tuple[Block, int] | None:
        """Where the cell (*which* 0) or net (1) called *name* sits: the
        glue run holding it, ``(block, row)``, or ``None`` (nowhere).

        Resolved once per design.  ``_glue`` knows every glue name: the
        edit verbs below keep it exact (an add records the run, a removal
        drops the name).  Any other name is looked up in the blocks once
        and the answer kept in ``_in_blocks`` — blocks lose no cell and
        gain no name, so it holds; a "none" until another block is
        adopted.  Only a block net's liveness is read each time."""
        run = self._glue[which].get(name)
        if run is not None:
            return run
        known = self._in_blocks[which]
        try:
            held = known[name]
        except KeyError:
            held = known[name] = self._resolve(name, which)
        if held is not None and which and not held[0].net_live[held[1]]:
            return None
        return held

    def _resolve(self, name: str, which: int) -> tuple[Block, int] | None:
        """``(block, row)`` of the block cell / net called *name*, live or
        not (``None``: no block holds one)."""
        for key in (name.partition("/")[0], None):
            block = self._blocks.get(key)
            if block is not None:
                row = block._row(name, which)
                if row is not None:
                    return block, row
        return None

    def block_row(self, name: str, which: int) -> tuple[Block, int] | None:
        held = self._find(name, which)
        return held if type(held) is tuple else None

    @staticmethod
    def _open_run(parts: list) -> dict:
        if not parts or type(parts[-1]) is Block:
            parts.append({})
        return parts[-1]

    def _sole_block(self) -> Block | None:
        if len(self._blocks) != 1:
            return None
        (block,) = self._blocks.values()
        untouched = self._cell_parts == [block] and self._net_parts == [block]
        if (untouched and block.pristine and sealed(block.image)
                and "/" not in block.prefix[:-1]):
            return block
        return None

    def _adoptable(self, sub: Design) -> Block | None:
        """Also: no name here can collide with the instance prefix."""
        block = sub._sole_block()
        if (block is None or block.instance is None
                or block.instance in self._blocks or None in self._blocks):
            return None
        glue = (n for parts in (self._cell_parts, self._net_parts)
                for p in parts if type(p) is dict for n in p)
        return None if any(n.startswith(block.prefix) for n in glue) else block

    # -- the readers and verbs of Design, over blocks + glue ------------------

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._blocks.values())

    @property
    def n_cells(self) -> int:
        return sum(p.n_cells if type(p) is Block else len(p) for p in self._cell_parts)

    @property
    def n_nets(self) -> int:
        return sum(p.n_nets if type(p) is Block else len(p) for p in self._net_parts)

    def cell_parts(self) -> list:
        return [p for p in self._cell_parts if p]

    def net_parts(self) -> list:
        return [p for p in self._net_parts if p]

    def loose_nets(self) -> list[Net]:
        return [n for p in self._net_parts if type(p) is dict for n in p.values()]

    def loose_net(self, name: str) -> Net | None:
        held = self._find(name, 1)
        return held[name] if type(held) is dict else None

    def clock_nets(self) -> list[Net]:
        """(One still inside a block has no object: that flattens.)"""
        if any(type(p) is Block and p.has_clock_nets() for p in self._net_parts):
            return Design.clock_nets(self)
        return [n for n in self.loose_nets() if n.is_clock]

    def has_net(self, name: str) -> bool:
        return self._find(name, 1) is not None

    def unknown_cells(self, names) -> set[str]:
        return {n for n in set(names) if self._find(n, 0) is None}

    def seq_clock_net(self, name: str) -> Net:
        """(Held as runs, one per block and glue run: see :class:`_BlockClock`.)"""
        return _BlockClock.over(name, self.cell_parts())

    def placement_of(self, name: str) -> tuple[int, int] | None:
        held = self._find(name, 0)
        if type(held) is dict:
            return held[name].placement
        if held is None:
            raise KeyError(name)
        return held[0].placement(held[1])

    def net_pins(self, name: str) -> tuple[str | None, list[str], int]:
        held = self._find(name, 1)
        if type(held) is dict:
            net = held[name]
            return net.driver, list(net.sinks), net.width
        if held is None:
            raise KeyError(name)
        return held[0].pins(held[1])

    def remove_net(self, name: str) -> None:
        held = self._find(name, 1)
        if type(held) is tuple:
            held[0].remove_net(held[1])
        else:
            del (held or {})[name]
            del self._glue[1][name]

    def remove_cell(self, name: str) -> None:
        """(A cell inside a block is not removable as such: that flattens.)"""
        held = self._find(name, 0)
        if type(held) is dict:
            del held[name]
            del self._glue[0][name]
        else:
            del self.cells[name]

    def remove_clock_nets(self) -> None:
        glue = self._glue[1]
        for part in self._net_parts:
            if type(part) is Block:
                part.remove_clock_nets()
            else:
                for name in [n.name for n in part.values() if n.is_clock]:
                    del part[name], glue[name]

    def add_cell(self, cell: Cell) -> Cell:
        if self._find(cell.name, 0) is not None:
            raise DesignError(f"duplicate cell {cell.name!r} in design {self.name}")
        run = self._glue[0][cell.name] = self._open_run(self._cell_parts)
        run[cell.name] = cell
        return cell

    def add_net(self, net: Net) -> Net:
        if self._find(net.name, 1) is not None:
            raise DesignError(f"duplicate net {net.name!r} in design {self.name}")
        run = self._glue[1][net.name] = self._open_run(self._net_parts)
        run[net.name] = net
        return net


_SINKS, _ROUTES = Net.sinks, Net.routes   # the slots, under _BlockClock's properties


class _BlockClock(Net):
    """The merged clock net of a block-backed design, held as runs.

    Its sinks are the design's sequential cells in order: per placed
    block, the rows its image marks sequential (the :class:`Block`
    stands for them); per glue run, the names; and last a *tail* of
    names that :meth:`add_sink` appends pipeline registers to and
    :meth:`truncate` cuts back.  Every route is ``None``.  So nothing
    of it is proportional to the cells: the encoder writes its sink
    column from each block's interned names, NET-003 looks up the glue
    and the tail only.  When the design materializes its blocks, each
    block run becomes the names of its cell objects (:meth:`name_cells`).

    Like :class:`_BlockBacked` for a design, a state a plain
    :class:`Net` is switched into and out of (a subclass rather than a
    property on ``Net``, which every flat design's net access would pay
    for).  While it lasts, ``Net``'s ``sinks`` slot holds the runs and
    its ``routes`` slot ``None``; the first read of ``sinks`` or
    ``routes`` as objects builds the two lists the plain net would hold
    and makes it a plain :class:`Net` holding them.
    """

    __slots__ = ()

    @classmethod
    def over(cls, name: str, parts: list) -> Net:
        """A clock net over the sequential cells of *parts* (runs of
        :meth:`Design.cell_parts`)."""
        net = Net(name, None, is_clock=True)
        runs = [p if type(p) is Block else [c.name for c in p.values() if c.seq] for p in parts]
        _SINKS.__set__(net, [*runs, []])
        _ROUTES.__set__(net, None)
        net.__class__ = cls
        return net

    def runs(self) -> list:
        """The sinks as runs, in order: a :class:`Block` (its sequential
        cells) or a list of names; the tail is the last list."""
        return _SINKS.__get__(self)

    def name_cells(self, built: dict) -> None:
        """Let each block run stand for the sequential cells of its
        objects in *built* (block -> ``(cells, nets)``, the block's
        :meth:`~Block.materialize`): the sinks a later flatten lists are
        then the very strings that name those cells."""
        runs = self.runs()
        for i, run in enumerate(runs):
            if type(run) is Block:
                runs[i] = [name for name, cell in built[run][0].items() if cell.seq]

    def _flatten(self) -> None:
        sinks = [name for run in self.runs()
                 for name in (run.seq_cell_names() if type(run) is Block else run)]
        _SINKS.__set__(self, sinks)
        _ROUTES.__set__(self, [None] * len(sinks))
        self.__class__ = Net

    @property
    def sinks(self) -> list[str]:
        self._flatten()
        return self.sinks

    @sinks.setter
    def sinks(self, value: list[str]) -> None:
        self._flatten()
        self.sinks = value

    @property
    def routes(self) -> list:
        self._flatten()
        return self.routes

    @routes.setter
    def routes(self, value: list) -> None:
        self._flatten()
        self.routes = value

    @property
    def is_routed(self) -> bool:
        return False                     # every route is None (setting one flattens)

    def add_sink(self, cell_name: str) -> None:
        self.runs()[-1].append(cell_name)

    def lengths(self) -> tuple[int, int]:
        n = sum(run.n_seq() if type(run) is Block else len(run) for run in self.runs())
        return n, n

    def truncate(self, lengths: tuple[int, int]) -> None:
        tail = self.runs()[-1]
        keep = lengths[0] - (self.lengths()[0] - len(tail))
        if keep < 0 or lengths[1] != lengths[0]:
            self._flatten()
            self.truncate(lengths)
        else:
            del tail[keep:]

    def sinks_outside(self, blocks: tuple) -> list[str]:
        return [name for run in self.runs() if run not in blocks
                for name in (run.seq_cell_names() if type(run) is Block else run)]

    def __reduce_ex__(self, protocol):
        self._flatten()                  # copies and pickles are of the lists
        return object.__reduce_ex__(self, protocol)
