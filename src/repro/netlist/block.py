"""Placed blocks: a component instance kept as columns, not objects.

A pre-implemented component arrives placed, routed and locked, so the
online phase has nothing to *do* to its 9 k cells — RapidWright keeps
such a component as a ``ModuleInst`` of a ``Module``, not as a copy of
its cells.  A :class:`Block` is that here: an immutable
:class:`~repro.netlist.codec.DesignImage` plus ``(dcol, drow,
instance)`` and a mask of the few boundary nets stitching has since
taken out.  A :class:`~repro.netlist.design.Design` that adopted blocks
holds them in order, interleaved with the objects that really are new
(stitch nets, the merged clock net, pipeline registers), until somebody
asks for ``design.cells`` / ``design.nets``; then every block is
materialized once (:meth:`Block.materialize`) and dropped.

Everything a flow stage reads of a block comes through the bulk
accessors below — whole columns, shifted and prefixed as the flattened
objects would be — so no module outside :mod:`repro.netlist` touches an
image column or builds a cell to look at it.  What depends only on the
image (name indexes, timing rows, route node pairs) is computed once per
image and cached there as compact arrays (:meth:`DesignImage.derived`);
what depends on the anchor is an array add on top.

Only a *sealed* image is kept as a block (:func:`sealed`): every net
endpoint names a cell of the image, every data connection is routed and
its net locked.  Anything else — a component with an unrouted or
unlocked connection — is materialized on adoption and handled as
objects, which is always right.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ..fabric.device import TILE_FOR_CELL
from .cell import Cell

__all__ = ["Block", "CellTable", "sealed"]

#: What every columnar form in this module is asserted equal to: the
#: objects :meth:`DesignImage.materialize` builds (oracle contract, lint
#: rules ORC-001..003; ``tests/test_block_design.py``).
ORACLE = "repro.netlist.codec.DesignImage.materialize"


# -- per-image artefacts (shift-invariant, cached on the image) --------------


def _name_order(image) -> tuple[np.ndarray, np.ndarray]:
    """Cell rows and net rows sorted by name: a name is found by
    bisection, at four bytes a row where a dict would cost sixty."""
    return tuple(
        np.array(sorted(range(len(names)), key=names.__getitem__), dtype=np.int32)
        for names in image.names()
    )


def _bisect_row(image, name: str, which: int) -> int | None:
    """Row of the cell (*which* 0) or net (1) called *name* (no prefix)."""
    names = image.names()[which]
    order = image.derived("name_order", _name_order)[which]
    k = bisect_left(order, name, key=names.__getitem__)
    if k < len(order) and names[order[k]] == name:
        return int(order[k])
    return None


def _reach(image) -> dict[str, tuple[int, int]]:
    """The names glue can reach, each with its ``(cell row, net row)``
    (``-1``: none): every net behind a port of the image and the cells
    at the ends of the data nets among them.  Stitching, pipelining,
    timing and the encoder look a block up by only these names; a dozen
    entries where a dict of every name would cost sixty bytes a row,
    and anything else is found by bisection."""
    rows = np.flatnonzero(np.isin(image.net_name, image.port_net)).tolist()
    driver, sink = image.derived("pin_rows", _pin_rows)
    sink_ends = image.derived("flat_ends", _flat_ends)[0]
    cells: set[int] = set()
    for r in rows:
        if not image.net_clock[r]:                    # (a clock net's sinks are every register)
            cells.add(int(driver[r]))
            cells.update(sink[sink_ends[r] - image.net_nsinks[r]:sink_ends[r]].tolist())
    cells.discard(-1)
    cell_names, net_names = image.names()
    reach = {}
    for name in [*(net_names[r] for r in rows), *(cell_names[c] for c in cells)]:
        cell, net = (_bisect_row(image, name, which) for which in (0, 1))
        reach[name] = (-1 if cell is None else cell, -1 if net is None else net)
    return reach


def _odd_rows(image) -> tuple[list[int], list[tuple[bool, bool, bool]]]:
    """The net rows with no driver, a clock or no sink — every net a
    question of :meth:`Block.net_names_where` for one of these can
    answer with — and each one's ``(driverless, clock, sinkless)``."""
    has = (image.net_driver < 0, image.net_clock != 0, image.net_nsinks == 0)
    rows = np.flatnonzero(has[0] | has[1] | has[2])
    return rows.tolist(), list(zip(*(h[rows].tolist() for h in has)))


class _NameTable(NamedTuple):
    """The cell and net names of one image under one instance prefix, as
    the string table of a checkpoint holds them: UTF-8 bytes end to end
    plus each name's byte length (and, for the nets, where each ends —
    removed nets are cut out of the bytes by offset)."""

    cell_raw: bytes
    cell_lens: np.ndarray
    net_raw: bytes
    net_lens: np.ndarray
    net_ends: np.ndarray
    shared: bool            # some net is called what a cell is called


def _name_table(image, prefix: str) -> _NameTable:
    packed = []
    cells, nets = image.names()
    for names in (cells, nets):
        raw = [(prefix + name).encode("utf-8") for name in names]
        packed += [b"".join(raw), np.fromiter(map(len, raw), "<u4", len(raw))]
    return _NameTable(*packed, np.cumsum(packed[3], dtype=np.int64),
                      not set(cells).isdisjoint(nets))


def _pin_rows(image) -> tuple[np.ndarray, np.ndarray]:
    """Driver of every net and every sink, as cell rows of the image
    (``-1``: no driver)."""
    row_of = image.cell_of_string()
    driver = image.net_driver
    return (np.where(driver >= 0, row_of[driver], -1).astype(np.int32),
            row_of[image.sink_name])


def _driverless(image) -> np.ndarray:
    """Rows of the nets with no driver."""
    return np.flatnonzero(image.net_driver < 0)


def _clock_rows(image) -> np.ndarray:
    """Rows of the clock nets."""
    return np.flatnonzero(image.net_clock != 0)


def _flat_ends(image) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each net's entries end in the three run-length columns:
    ``sink_name``, ``route_len`` and ``route_node``."""
    routes = np.cumsum(image.net_nroutes, dtype=np.int64)
    nodes = np.concatenate(([0], np.cumsum(np.maximum(image.route_len, 0), dtype=np.int64)))
    return np.cumsum(image.net_nsinks, dtype=np.int64), routes, nodes[routes]


def _unplaced(image) -> np.ndarray:
    """Rows of the cells with no site."""
    return np.flatnonzero(image.cell_placed == 0)


def _seq(image) -> np.ndarray:
    return image.cell_seq.astype(bool)


def _seq_rows(image) -> np.ndarray | None:
    """Rows of the sequential cells (``None``: every cell is one)."""
    seq = image.derived("seq", _seq)
    return None if seq.all() else np.flatnonzero(seq)


def _kinds(image) -> tuple[np.ndarray, list[str]]:
    """Cell type of every cell as a code into a first-appearance table."""
    index, first, codes = np.unique(
        image.cell_ctype, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")          # table in first-appearance order
    rank = np.empty(len(order), dtype=np.int16)
    rank[order] = np.arange(len(order))
    return rank[codes], [image.strings[i] for i in index[order].tolist()]


def _resources(image) -> dict[str, int]:
    """:meth:`Cell.resources <repro.netlist.cell.Cell.resources>` summed
    over the image's cells, keys in the order a walk over the cells first
    meets them: one representative cell per distinct ``(ctype, luts,
    ffs)``, in first-appearance order, times the cells it stands for."""
    kind, table = image.derived("kinds", _kinds)
    luts, ffs = image.cell_luts, image.cell_ffs
    _, first, count = np.unique(np.stack([kind, luts, ffs]), axis=1,
                                return_index=True, return_counts=True)
    usage: Counter = Counter()
    for row, n in sorted(zip(first.tolist(), count.tolist())):
        cell = Cell.__new__(Cell)
        cell.ctype, cell.luts, cell.ffs = table[kind[row]], int(luts[row]), int(ffs[row])
        usage.update({key: amount * n for key, amount in cell.resources().items()})
    return dict(usage)


def _modules(image) -> tuple[np.ndarray, list[str]]:
    """Like :func:`_kinds` for the recorded ``module`` tags (``-1`` = none)."""
    index, first, codes = np.unique(
        image.cell_module, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    codes = rank[codes]
    table = [image.strings[i] if i >= 0 else None for i in index[order].tolist()]
    if None in table:                                  # keep -1 for "no module"
        none = table.index(None)
        codes = np.where(codes == none, -1, codes - (codes > none))
        table.pop(none)
    return codes, table


def _delay_classes(image) -> tuple[list, np.ndarray]:
    """One representative :class:`Cell` per distinct ``(ctype,
    comb_depth)`` of the image, and each cell's class — all a delay
    model's per-cell methods can tell two library cells apart by."""
    kind, table = image.derived("kinds", _kinds)
    depth = image.cell_depth.astype(np.int64)
    _, first, which = np.unique(depth * len(table) + kind, return_index=True,
                                return_inverse=True)
    cells = [Cell(f"<{table[kind[i]]}:{depth[i]}>", table[kind[i]], comb_depth=int(depth[i]))
             for i in first.tolist()]
    return cells, which.astype(np.int16)


class _Edges(NamedTuple):
    """One row per (data net, sink) of an image, in net order."""

    net: np.ndarray         # image net row
    src: np.ndarray         # image cell row of the driver
    dst: np.ndarray         # image cell row of the sink
    fanout: np.ndarray      # sinks of the net
    start: np.ndarray       # first node of the row's path in ``route_node``
    length: np.ndarray      # nodes in it


def _edges(image) -> _Edges:
    row_of = image.cell_of_string()
    nsinks = image.net_nsinks.astype(np.int64)
    data = (image.net_clock == 0) & (image.net_driver >= 0)
    owner = np.repeat(np.arange(len(nsinks)), nsinks)
    keep = np.flatnonzero(data[owner])
    net = owner[keep]
    lens = np.maximum(image.route_len, 0)
    starts = np.cumsum(lens) - lens
    # int32 throughout: the table lives as long as the database record
    return _Edges(*(column.astype(np.int32) for column in (
        net, row_of[image.net_driver[net]], row_of[image.sink_name[keep]],
        nsinks[net], starts[keep], image.route_len[keep],
    )))


def _rows_per_net(image) -> np.ndarray:
    """Timing rows (routed data connections) of every net row."""
    return np.bincount(image.derived("edges", _edges).net,
                       minlength=len(image.net_name)).astype(np.int32)


def sealed(image) -> bool:
    """Whether *image* can stay columnar inside a design.

    True when nothing about it needs the per-object code paths: every
    net has one route slot per sink and no empty path; every endpoint
    names a cell of the image; every connection of a data net (not a
    clock, has a driver) is routed and the net locked, and no undriven
    net is routed — so the router finds nothing to do in it, timing
    needs no placement estimate, the pipeliner nothing to split, and
    the routed wires are exactly the timing rows'.
    """
    return image.derived("sealed", _sealed)


def _sealed(image) -> bool:
    if not np.array_equal(image.net_nroutes, image.net_nsinks):
        return False
    if (image.route_len == 0).any():
        return False
    row_of = image.cell_of_string()
    driven = image.net_driver >= 0
    if (row_of[image.sink_name] < 0).any() or (row_of[image.net_driver[driven]] < 0).any():
        return False
    data = (image.net_clock == 0) & driven
    if (data & (image.net_nsinks > 0) & (image.net_locked == 0)).any():
        return False
    undriven = np.repeat((image.net_clock == 0) & ~driven, image.net_nsinks)
    if (image.route_len[undriven] >= 0).any():
        return False
    return bool((image.derived("edges", _edges).length >= 1).all())


class _Wires(NamedTuple):
    """Wire use of an image's routed data nets, as the router charges it."""

    node: np.ndarray        # the distinct interior routed nodes, unshifted
    charge: np.ndarray      # total width of the nets that cross each
    routed: np.ndarray      # routed connections per image net row
    total: int              # routed connections of the nets counted


def _wires(image) -> _Wires:
    return _wires_of(image, None)


def _wires_of(image, live: np.ndarray | None) -> _Wires:
    """Branches of one net share trunk wires: a node is charged the
    net's width once per net, and then summed over the nets (those of
    the mask *live* over net rows, when there is one).  Widths are
    integers, so the float sums are exact whatever the order."""
    edges = image.derived("edges", _edges)
    ends = np.cumsum(edges.length, dtype=np.int64)
    flat = np.repeat(edges.start - ends + edges.length, edges.length)
    flat += np.arange(flat.size)                       # node positions of every edge path
    interior = np.ones(flat.size, dtype=bool)          # endpoint tiles are pins, not wires
    interior[ends - edges.length] = False
    interior[ends - 1] = False
    if live is not None:
        interior &= np.repeat(live[edges.net], edges.length)
    node = image.route_node[flat[interior]]
    span = int(node.max()) + 1 if node.size else 1
    pairs = np.unique(                                 # one charge per (net, node)
        np.repeat(edges.net, edges.length)[interior].astype(np.int64) * span + node)
    node, first = np.unique(pairs % span, return_inverse=True)
    routed = image.derived("rows_per_net", _rows_per_net)
    return _Wires(
        node.astype(np.int32),
        np.bincount(first, weights=image.net_width[pairs // span], minlength=len(node)),
        routed,
        int(routed.sum() if live is None else routed[live].sum()),
    )


def _wire_box(wires: _Wires, nrows: int) -> tuple[int, int, np.ndarray]:
    """:meth:`Block.wire_use`'s charge box of *wires* on a grid *nrows*
    high, unshifted.  The charges are small integer sums, exact in
    ``float32``."""
    if not wires.node.size:
        return 0, 0, np.zeros((0, 0), dtype=np.float32)
    col, row = np.divmod(wires.node.astype(np.int64), nrows)
    c0, r0 = int(col.min()), int(row.min())
    box = np.zeros((int(col.max()) - c0 + 1, int(row.max()) - r0 + 1), dtype=np.float32)
    box[col - c0, row - r0] = wires.charge          # distinct nodes
    return c0, r0, box


class _Sites(NamedTuple):
    """Where an image's placed cells sit, reduced to what a verdict on
    the whole block needs."""

    box: tuple[int, int, int, int] | None   # (col0, row0, col1, row1); None: none placed
    col: np.ndarray         # the distinct (column, tile type its cells need) pairs
    tile: np.ndarray


def _sites(image) -> _Sites:
    placed = image.cell_placed.astype(bool)
    if not placed.any():
        return _Sites(None, np.zeros(0, np.int64), np.zeros(0, np.int64))
    col, row = image.cell_col[placed].astype(np.int64), image.cell_row[placed]
    kind, table = image.derived("kinds", _kinds)
    need = np.array([TILE_FOR_CELL[t] for t in table], dtype=np.int64)[kind[placed]]
    span = int(need.max()) + 1
    pairs = np.unique(col * span + need)
    return _Sites((int(col.min()), int(row.min()), int(col.max()), int(row.max())),
                  pairs // span, pairs % span)


def _site_keys(image) -> tuple[np.ndarray, bool]:
    """The placed cells' sites as sorted keys into the image's bounding
    box (``(col - col0) * height + row - row0``), and whether no two
    cells share one."""
    box = image.derived("sites", _sites).box
    if box is None:
        return np.zeros(0, dtype=np.int32), True
    placed = image.cell_placed.astype(bool)
    keys = np.sort((image.cell_col[placed] - box[0]) * (box[3] - box[1] + 1)
                   + (image.cell_row[placed] - box[1])).astype(np.int32)
    return keys, bool((keys[1:] != keys[:-1]).all())


def _route_span(image, nrows: int) -> tuple[int, int, int, int]:
    """``(col_lo, col_hi, row_lo, row_hi)`` over every routed node."""
    if not image.route_node.size:
        return 0, 0, 0, 0
    cols, rows = np.divmod(image.route_node, nrows)
    return int(cols.min()), int(cols.max()), int(rows.min()), int(rows.max())


# -- the block -----------------------------------------------------------------


class Block:
    """One placed instance of an image inside a design.

    ``dcol`` / ``drow`` shift sites (and ``dcol * nrows + drow`` routed
    nodes); *instance* prefixes every cell and net name with
    ``"{instance}/"`` and is every cell's ``module`` tag (``None``: the
    image's own names and tags).  The image is shared and never written;
    the one thing a block owns is :attr:`net_live`, which net rows are
    still part of the design.
    """

    __slots__ = ("image", "dcol", "drow", "nrows", "instance", "prefix",
                 "net_live", "n_nets", "_live", "_odd", "_io")

    def __init__(self, image, dcol: int, drow: int, nrows: int,
                 instance: str | None) -> None:
        self.image = image
        self.dcol = dcol
        self.drow = drow
        self.nrows = nrows
        self.instance = instance
        self.prefix = "" if instance is None else f"{instance}/"
        self.net_live = np.ones(len(image.net_name), dtype=bool)
        self.n_nets = len(image.net_name)
        self._live: tuple | None = None          # what follows from net_live, as of n_nets
        self._odd: list | None = None            # (row, name, flags) of the odd nets
        self._io: tuple = (None, None)           # (device, its _io_key)

    @property
    def n_cells(self) -> int:
        return len(self.image.cell_name)

    @property
    def pristine(self) -> bool:
        """No net has been taken out yet."""
        return self.n_nets == len(self.net_live)

    # -- names ---------------------------------------------------------------

    def _row(self, name: str, which: int) -> int | None:
        """Row of the cell (*which* 0) or net (1, live or not) called
        *name* in the design, if it is here."""
        if self.prefix:
            if not name.startswith(self.prefix):
                return None
            name = name[len(self.prefix):]
        rows = self.image.derived("reach", _reach).get(name)
        if rows is None:
            return _bisect_row(self.image, name, which)
        return rows[which] if rows[which] >= 0 else None

    def cell_row(self, name: str) -> int | None:
        """Row of the cell called *name* in the design, if it is here."""
        return self._row(name, 0)

    def net_row(self, name: str) -> int | None:
        """Row of the (still live) net called *name*, if it is here."""
        row = self._row(name, 1)
        return row if row is not None and self.net_live[row] else None

    def cell_names(self) -> list[str]:
        """Design-level name of every cell, in row order (a fresh list)."""
        return list(map(self.prefix.__add__, self.image.names()[0]))

    def seq_cell_names(self) -> list[str]:
        """Names of the sequential cells, in row order (a fresh list)."""
        names, rows = self.cell_names(), self.seq_rows()
        return names if rows is None else [names[i] for i in rows.tolist()]

    def net_names(self, rows=None) -> list[str]:
        """Design-level names of the live nets (or of net *rows*)."""
        names = self.image.names()[1]
        if rows is None:
            rows = np.flatnonzero(self.net_live)
        return [self.prefix + names[i] for i in np.asarray(rows).tolist()]

    def packed_names(self, which: int) -> tuple[list, list, bool]:
        """The cell (*which* 0) or live net (1) names as a checkpoint's
        string table holds them — UTF-8 bytes end to end and the byte
        length of each name, each as pieces to be written one after the
        other — and whether a net shares its name with a cell.  Built
        once per image and instance prefix; a later instance under the
        same name reads it back, and a block that lost nets cuts them
        out as views."""
        table = self._name_table()
        if which == 0:
            return [table.cell_raw], [table.cell_lens], table.shared
        return (self._cut(memoryview(table.net_raw), "names"), self._cut(table.net_lens),
                table.shared)

    def _name_table(self) -> _NameTable:
        return self.image.derived(
            ("name_table", self.prefix), lambda image: _name_table(image, self.prefix))

    def live_rank(self, row: int) -> int:
        """Position of live net *row* among the live nets."""
        return int(np.count_nonzero(self.net_live[:row]))

    # -- cells ---------------------------------------------------------------

    def sites(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(placed, col, row)`` of every cell, shifted (0 where unplaced)."""
        image = self.image
        placed = image.cell_placed.astype(bool)
        col = image.cell_col.astype(np.int64)
        row = image.cell_row.astype(np.int64)
        if self.dcol or self.drow:
            col = np.where(placed, col + self.dcol, 0)
            row = np.where(placed, row + self.drow, 0)
        return placed, col, row

    def kinds(self) -> tuple[np.ndarray, list[str]]:
        """``(codes, table)``: ``table[codes[i]]`` is cell *i*'s type name."""
        return self.image.derived("kinds", _kinds)

    def resource_usage(self) -> dict[str, int]:
        """What the block's cells consume (:meth:`Design.resource_usage
        <repro.netlist.design.Design.resource_usage>` of its objects),
        kept per image."""
        return self.image.derived("resources", _resources)

    def cell_delays(self, delays) -> tuple[np.ndarray, np.ndarray]:
        """``(logic, setup)`` delay of every cell: :meth:`DelayModel.
        cell_delays_ps <repro.timing.delays.DelayModel.cell_delays_ps>` of
        one representative cell per (type, depth) — all a delay model's
        per-cell methods can tell two library cells apart by — kept with
        the image per delay model."""
        def build(image):
            cells, which = image.derived("delay_classes", _delay_classes)
            logic, setup = delays.cell_delays_ps(cells)
            return logic[which], setup[which]

        return self.image.derived(("cell_delays", delays), build)

    def seq(self) -> np.ndarray:
        """Whether each cell is sequential (kept per image: read-only)."""
        return self.image.derived("seq", _seq)

    def seq_rows(self) -> np.ndarray | None:
        """Rows of the sequential cells, in order (``None``: every row)."""
        return self.image.derived("seq_rows", _seq_rows)

    def n_seq(self) -> int:
        """How many cells are sequential."""
        rows = self.seq_rows()
        return self.n_cells if rows is None else len(rows)

    def placement(self, row: int) -> tuple[int, int] | None:
        """One cell's ``placement``, as its object would hold it."""
        image = self.image
        if not image.cell_placed[row]:
            return None
        return int(image.cell_col[row]) + self.dcol, int(image.cell_row[row]) + self.drow

    def describe_cell(self, row: int) -> tuple[str, str, tuple[int, int] | None]:
        """``(name, ctype, placement)`` of one cell, as its object would say."""
        image = self.image
        strings = image.strings
        return (self.prefix + strings[image.cell_name[row]],
                strings[image.cell_ctype[row]], self.placement(row))

    def within(self, col0: int, row0: int, col1: int, row1: int) -> bool:
        """Whether every placed cell sits inside the (inclusive)
        rectangle — read off the image's bounding box, shifted."""
        box = self.image.derived("sites", _sites).box
        return box is None or (
            col0 <= box[0] + self.dcol and box[2] + self.dcol <= col1
            and row0 <= box[1] + self.drow and box[3] + self.drow <= row1)

    def box(self) -> tuple[int, int, int, int] | None:
        """``(col0, row0, col1, row1)`` around the placed cells, shifted
        (``None``: none is placed)."""
        box = self.image.derived("sites", _sites).box
        if box is None:
            return None
        return box[0] + self.dcol, box[1] + self.drow, box[2] + self.dcol, box[3] + self.drow

    def one_per_site(self) -> bool:
        """Whether no two placed cells of the block share a site (kept
        per image)."""
        return self.image.derived("site_keys", _site_keys)[1]

    def holds(self, col: int, row: int) -> bool:
        """Whether a placed cell of the block sits at ``(col, row)``: a
        bisection of the image's sorted sites."""
        box = self.image.derived("sites", _sites).box
        if box is None:
            return False
        col, row = col - self.dcol - box[0], row - self.drow - box[1]
        height = box[3] - box[1] + 1
        if not (0 <= col <= box[2] - box[0] and 0 <= row < height):
            return False
        keys = self.image.derived("site_keys", _site_keys)[0]
        key = col * height + row
        k = int(keys.searchsorted(key))
        return k < len(keys) and int(keys[k]) == key

    def on_legal_sites(self, device) -> bool:
        """Whether every placed cell is on the grid of *device* and on a
        column whose tiles host its type — the verdict of the per-cell
        placement rules for the whole block, from its bounding box and
        its handful of distinct (column, type) pairs."""
        if not self.within(0, 0, device.ncols - 1, device.nrows - 1):
            return False
        sites = self.image.derived("sites", _sites)
        return bool((device.col_types[sites.col + self.dcol] == sites.tile).all())

    def site_ids(self, nrows: int) -> np.ndarray:
        """``col * nrows + row`` of every placed cell, in row order."""
        def build(image):
            placed = image.cell_placed.astype(bool)
            return image.cell_col[placed].astype(np.int64) * nrows + image.cell_row[placed]

        return self.image.derived(("site_ids", nrows), build) + (self.dcol * nrows + self.drow)

    # -- nets ----------------------------------------------------------------

    def net_names_where(self, *, driverless: bool | None = None,
                        clock: bool | None = None,
                        sinkless: bool | None = None) -> list[str]:
        """Names, in order, of the live nets whose ``driver is None`` /
        ``is_clock`` / ``not sinks`` equal the flags given (``None``: either)."""
        wants = (driverless, clock, sinkless)
        if True not in wants:                    # the answer can be most nets: a mask
            image, keep = self.image, self.net_live
            for want, has in zip(wants, (image.net_driver < 0, image.net_clock != 0,
                                         image.net_nsinks == 0)):
                if want is not None:
                    keep = keep & (has == want)
            return self.net_names(np.flatnonzero(keep))
        if self._odd is None:
            self._odd = self._odd_nets()
        live = self.net_live
        return [name for row, name, flags in self._odd if live[row] and all(
            want is None or want == has for want, has in zip(wants, flags))]

    def _odd_nets(self) -> list[tuple[int, str, tuple[bool, bool, bool]]]:
        """``(row, name, (driverless, clock, sinkless))`` of each net of
        :func:`_odd_rows`, named in the design: built once per block."""
        rows, flags = self.image.derived("odd_rows", _odd_rows)
        return list(zip(rows, self.net_names(rows), flags))

    def pins(self, row: int) -> tuple[str | None, list[str], int]:
        """``(driver, sinks, width)`` of net *row*."""
        image = self.image
        strings, prefix = image.strings, self.prefix
        driver = int(image.net_driver[row])
        s1 = int(image.derived("flat_ends", _flat_ends)[0][row])
        sinks = image.sink_name[s1 - int(image.net_nsinks[row]):s1].tolist()
        return (prefix + strings[driver] if driver >= 0 else None,
                [prefix + strings[i] for i in sinks], int(image.net_width[row]))

    def remove_net(self, row: int) -> None:
        self.net_live[row] = False
        self.n_nets -= 1

    def has_clock_nets(self) -> bool:
        return bool(self.net_live[self.image.derived("clock_rows", _clock_rows)].any())

    def remove_clock_nets(self) -> None:
        self.net_live[self.image.derived("clock_rows", _clock_rows)] = False
        self.n_nets = int(np.count_nonzero(self.net_live))

    # -- timing / routing / power --------------------------------------------

    def _removed(self) -> tuple:
        """``(live rows, spans)`` while nets have been removed: which of
        the image's timing rows belong to a live net (``None``: all of
        them), and the runs of consecutive live net rows as slices —
        worked out once per removal."""
        if self._live is None or self._live[0] != self.n_nets:
            gone = np.flatnonzero(~self.net_live)
            keep = None                          # (stitching takes out nets with no rows)
            if self.image.derived("rows_per_net", _rows_per_net)[gone].any():
                keep = self.net_live[self.image.derived("edges", _edges).net]
            cuts = [-1, *gone.tolist(), len(self.net_live)]
            self._live = (self.n_nets, keep,
                          [slice(a + 1, b) for a, b in zip(cuts, cuts[1:]) if a + 1 < b])
        return self._live[1:]

    def live_rows(self) -> np.ndarray | None:
        """Which of the image's timing rows belong to a live net
        (``None``: every one)."""
        return None if self.pristine else self._removed()[0]

    def timing_rows(self) -> _Edges:
        """One row per (live data net, sink), in the order a walk over the
        flattened nets would meet them: net row, driver and sink as cell
        rows *of this block*, the net's fanout, and the row's path as
        ``(start, length)`` into :meth:`route_nodes`."""
        edges = self.image.derived("edges", _edges)
        live = self.live_rows()
        return edges if live is None else _Edges(*(column[live] for column in edges))

    def route_nodes(self) -> np.ndarray:
        """Every routed node of the image, shifted to this anchor."""
        return self.image.route_node + (self.dcol * self.nrows + self.drow)

    def _io_key(self, device) -> tuple | None:
        """What the routes' path metrics depend on at this anchor: the
        device height and the I/O columns under the routes' column span
        (``None`` when a route would leave the device here).  Worked out
        once per block and device."""
        if self._io[0] is not device:
            self._io = (device, self._read_io(device))
        return self._io[1]

    def _read_io(self, device) -> tuple | None:
        lo, hi, row_lo, row_hi = self.image.derived(
            ("route_span", self.nrows), lambda image: _route_span(image, self.nrows))
        lo, hi = lo + self.dcol, hi + self.dcol
        if (device.nrows == self.nrows and 0 <= lo and hi < device.ncols
                and 0 <= row_lo + self.drow and row_hi + self.drow < self.nrows):
            return self.nrows, device.io_mask[lo:hi + 1].tobytes()
        return None

    def keep(self, graph, name: str, build, *more):
        """``build(self)``, for what follows from this block's routes as
        placed here (and *more*) alone: built once per image and kept
        there under *name*, :meth:`_io_key` and *more*, for every later
        instance whose routes read the same (built each time where they
        would leave the device)."""
        key = self._io_key(graph.device)
        if key is None:
            return build(self)
        return self.image.derived((name, *key, *more), lambda _image: build(self))

    def route_metrics(self, graph) -> tuple[np.ndarray, np.ndarray]:
        """``(tiles, io_crossings)`` of every timing row of the image (a
        removed net's too): :meth:`RoutingGraph.path_metrics_csr
        <repro.fabric.interconnect.RoutingGraph.path_metrics_csr>` over
        the shifted routes, measured once per image and *what it depends
        on* — never the row shift, and of the column shift only where the
        I/O columns then fall under the routes — and kept there for every
        later instance, at any anchor that reads the same (:meth:`keep`).
        """
        edges = self.image.derived("edges", _edges)

        def measure(block):
            tiles, crossings = graph.path_metrics_csr(
                block.route_nodes(), edges.start, edges.length)
            return tiles.astype(np.int32), crossings.astype(np.int32)

        return self.keep(graph, "route_metrics", measure)

    def routed_delays(self, graph, delays) -> np.ndarray:
        """:meth:`DelayModel.routed_delays_ps
        <repro.timing.delays.DelayModel.routed_delays_ps>` of every row of
        :meth:`timing_rows` — kept with the image under what the route
        metrics are kept under plus the delay model (a frozen dataclass:
        its class and values), so a later instance reads them back."""
        def compute(block):
            return delays.routed_delays_ps(
                *block.route_metrics(graph), block.image.derived("edges", _edges).fanout)

        out = self.keep(graph, "route_delays", compute, delays)
        live = self.live_rows()
        return out if live is None else out[live]

    def routed_tiles(self, graph) -> int:
        """The tiles every routed row spans, each counted net-width times
        (what power charges for wire) — an integer, kept with the route
        metrics while every row is live."""
        def total(block):
            tiles = block.route_metrics(graph)[0].astype(np.int64)
            image = block.image
            width = image.net_width[image.derived("edges", _edges).net].astype(np.int64)
            return int(tiles @ width) if live is None else int(tiles[live] @ width[live])

        live = self.live_rows()
        return self.keep(graph, "routed_tiles", total) if live is None else total(self)

    def wire_use(self) -> tuple[int, int, np.ndarray, int]:
        """``(col, row, charge, routed)``: the width the router charges
        each node for the live data nets' interior routes (once per net
        crossing it, summed) as a ``(columns, rows)`` array over the box
        the wires span, whose first entry is the node at ``(col, row)`` —
        zero where no wire runs — and the number of routed connections
        behind them.  Kept per image; worked out afresh only for a block
        that lost a net which owned wires."""
        if self.live_rows() is None:             # no net that owned wires is gone
            wires = self.image.derived("wires", _wires)
            col, row, charge = self.image.derived(
                ("wire_box", self.nrows), lambda image: _wire_box(wires, self.nrows))
        else:
            wires = _wires_of(self.image, self.net_live)
            col, row, charge = _wire_box(wires, self.nrows)
        return col + self.dcol, row + self.drow, charge, wires.total

    # -- re-encoding (DesignImage.from_design) --------------------------------
    #
    # What the encoder writes of a block is its image's columns as they
    # are, but for one add on each string-index, site and route-node
    # column and, once nets are removed, cut to the live ones — as views,
    # which the encoder writes out without joining them first.

    def _cut(self, column, flat: str | None = None) -> list:
        """*column* over the live nets, as a list of views: a column with
        a value per net row, or a run-length one — *flat* names whose
        entries it holds: ``"sinks"``, ``"routes"``, ``"nodes"`` or
        ``"names"`` (the bytes of the net names).  A few slices, the
        removed nets being a handful; the column whole while none is."""
        if self.pristine:
            return [column]
        spans = self._removed()[1]
        if flat is None:
            return [column[span] for span in spans]
        if flat == "names":
            ends = self._name_table().net_ends
        else:
            ends = self.image.derived("flat_ends", _flat_ends)[
                ("sinks", "routes", "nodes").index(flat)]
        return [column[(int(ends[s.start - 1]) if s.start else 0):int(ends[s.stop - 1])]
                for s in spans]

    def module_column(self, intern) -> np.ndarray:
        """String index of every cell's ``module`` tag (``-1``: none),
        interning new tags through *intern* in first-appearance order."""
        if self.instance is not None:
            return np.full(self.n_cells, intern(self.instance), dtype=np.int32)
        codes, table = self.image.derived("modules", _modules)
        ids = np.array([intern(t) for t in table] + [-1], dtype=np.int32)
        return ids[codes]                      # code -1 picks the trailing -1

    def cell_columns(self) -> tuple[np.ndarray, ...]:
        """``cell_placed`` … ``cell_seq``, the cell columns that hold no
        string index, in :data:`~repro.netlist.codec._COLUMNS` order:
        the image's own, the sites shifted to this anchor."""
        image = self.image
        col, row = image.cell_col, image.cell_row
        if self.dcol or self.drow:
            col, row = col + self.dcol, row + self.drow
            unplaced = image.derived("unplaced", _unplaced)
            if unplaced.size:
                col[unplaced] = row[unplaced] = 0
        return (image.cell_placed, col, row, image.cell_locked, image.cell_luts,
                image.cell_ffs, image.cell_depth, image.cell_seq)

    def net_columns(self, cells) -> tuple[list, ...]:
        """``net_driver`` … ``route_node``, the live nets' columns after
        their names, in :data:`~repro.netlist.codec._COLUMNS` order and
        each as a list of runs, given where this block's cell names sit
        in the string table — *cells*: the index of the first, when they
        took one consecutive run, else the index of each.  A driver or
        sink is its cell's index (its row plus the first index), and a
        routed node is shifted to this anchor."""
        image = self.image
        driver, sink = image.derived("pin_rows", _pin_rows)
        if type(cells) is int:
            driver, sink = driver + cells, sink + cells
            driver[image.derived("driverless", _driverless)] = -1
        else:
            driver, sink = np.where(driver >= 0, cells[driver], -1), cells[sink]
        shift = self.dcol * self.nrows + self.drow
        cut = self._cut
        return (cut(driver), cut(image.net_width), cut(image.net_clock),
                cut(image.net_locked), cut(image.net_nsinks), cut(image.net_nroutes),
                cut(sink, "sinks"), cut(image.route_len, "routes"),
                cut(image.route_node + shift if shift else image.route_node, "nodes"))

    # -- flattening ----------------------------------------------------------

    def materialize(self) -> tuple[dict, dict]:
        """The block's ``(cells, nets)`` as objects (removed nets left out)."""
        live = None if self.pristine else self.net_live.tolist()
        return self.image.objects(
            self.dcol, self.drow, self.nrows, instance=self.instance, live=live)


# -- whole-design column views -------------------------------------------------


def _cat(columns: list, dtype) -> np.ndarray:
    return np.concatenate(columns) if columns else np.zeros(0, dtype=dtype)


class CellTable:
    """Columns over every cell of a design, in ``design.cells`` order.

    ``placed`` / ``col`` / ``row`` (0 where unplaced), ``kind`` as a code
    into ``kinds`` (type names), ``seq`` — each built on first use.
    :meth:`describe` resolves the few rows a report needs back to
    ``(name, ctype, placement)`` — the placement *object* for a cell that
    exists as one, so a message reads exactly as the per-cell loop
    printed it.
    """

    def __init__(self, parts: list) -> None:
        """*parts*: :meth:`Design.cell_parts` (or runs already listed)."""
        self._parts = [p if type(p) in (Block, list) else list(p.values()) for p in parts]
        self._starts = [0, *accumulate(
            p.n_cells if type(p) is Block else len(p) for p in self._parts)]

    def without(self, cleared) -> "CellTable":
        """The table over the same runs minus the blocks *cleared* holds
        for — blocks whose verdict a rule has without looking at a cell.
        Order is kept, so what a rule finds in the rest it finds in the
        order it would have found it in the whole."""
        return CellTable([p for p in self._parts if type(p) is not Block or not cleared(p)])

    def blocks(self) -> list[Block]:
        """The placed blocks among the runs, in order."""
        return [p for p in self._parts if type(p) is Block]

    def sharing(self) -> "CellTable":
        """:meth:`without` the blocks none of whose sites another cell of
        the table takes: the image holds one cell per site, the box
        overlaps no other block's, and no glue cell sits on one of its
        sites (each glue cell inside its box is bisected for).  Every
        cell that shares a site is in what is left."""
        blocks = [(b, b.box()) for b in self.blocks()]
        boxed = [box for _b, box in blocks if box is not None]
        if boxed:
            c0, r0, c1, r1 = np.array(boxed, dtype=np.int64).T
            overlaps = ((c0[:, None] <= c1) & (c0 <= c1[:, None])
                        & (r0[:, None] <= r1) & (r0 <= r1[:, None])).sum(axis=1).tolist()
        apart, k = {}, 0
        for block, box in blocks:
            if box is None:
                apart[block] = (0, 0, -1, -1)
                continue
            if overlaps[k] == 1 and block.one_per_site():   # (its own box only)
                apart[block] = box
            k += 1
        if not apart:
            return self
        glue = [cell.placement for part in self._parts if type(part) is not Block
                for cell in part if cell.placement is not None]
        taken = {block for block, (c0, r0, c1, r1) in apart.items() for col, row in glue
                 if c0 <= col <= c1 and r0 <= row <= r1 and block.holds(col, row)}
        return self.without(lambda block: block in apart and block not in taken)

    def site_ids(self, device) -> np.ndarray | None:
        """Flat site index (``col * nrows + row``) of every placed cell,
        in order; ``None`` when a placed cell is off the grid."""
        nrows, ids = device.nrows, []
        for part in self._parts:
            if type(part) is Block:
                if not part.within(0, 0, device.ncols - 1, nrows - 1):
                    return None
                ids.append(part.site_ids(nrows))
            else:
                sites = [cell.placement for cell in part if cell.placement is not None]
                if not all(device.in_bounds(col, row) for col, row in sites):
                    return None
                ids.append(np.array([col * nrows + row for col, row in sites], dtype=np.int64))
        return _cat(ids, np.int64)

    def __len__(self) -> int:
        return self._starts[-1]

    @cached_property
    def _sites(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        placed, col, row = [], [], []
        for part in self._parts:
            if type(part) is Block:
                p, c, r = part.sites()
            else:
                sites = [cell.placement for cell in part]
                p = np.fromiter((s is not None for s in sites), bool, len(part))
                c = np.array([s[0] if s is not None else 0 for s in sites], dtype=np.int64)
                r = np.array([s[1] if s is not None else 0 for s in sites], dtype=np.int64)
            placed.append(p)
            col.append(c)
            row.append(r)
        return _cat(placed, bool), _cat(col, np.int64), _cat(row, np.int64)

    placed = property(lambda self: self._sites[0])
    col = property(lambda self: self._sites[1])
    row = property(lambda self: self._sites[2])

    @cached_property
    def _kinds(self) -> tuple[np.ndarray, list[str]]:
        kinds: dict[str, int] = {}
        kind = []
        for part in self._parts:
            if type(part) is Block:
                codes, table = part.kinds()
                kind.append(np.array([kinds.setdefault(t, len(kinds)) for t in table],
                                     dtype=np.int64)[codes])
            else:
                kind.append(np.fromiter(
                    (kinds.setdefault(c.ctype, len(kinds)) for c in part),
                    np.int64, len(part)))
        return _cat(kind, np.int64), list(kinds)

    kind = property(lambda self: self._kinds[0])
    kinds = property(lambda self: self._kinds[1])

    @cached_property
    def seq(self) -> np.ndarray:
        return _cat([
            part.seq() if type(part) is Block
            else np.fromiter((bool(c.seq) for c in part), bool, len(part))
            for part in self._parts
        ], bool)

    def describe(self, index: int) -> tuple[str, str, object]:
        k = bisect_right(self._starts, index) - 1
        part, local = self._parts[k], index - self._starts[k]
        if type(part) is Block:
            return part.describe_cell(local)
        cell = part[local]
        return cell.name, cell.ctype, cell.placement
