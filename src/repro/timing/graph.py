"""Compiled timing graph for incremental STA.

:func:`repro.timing.sta.analyze_reference` rebuilds its dict-based
fan-in structures and recomputes every net delay on every call.  The
:class:`TimingGraph` here compiles the same information **once** into
columns — a handful of flat lists and numpy arrays, never an object per
cell, net or edge — and then *patches* those columns as the design
mutates (the net split / cell insert / clock-sink add / revert edits
:func:`repro.timing.pipeline.pipeline_to_target` performs, plus
arbitrary route and placement changes from the router).

Layout: one **slot** per cell in ``design.cells`` order; one entry per
*data net* (not a clock, has a driver) in ``design.nets`` order; one
**row** per (data net, sink) pair in that same order, so the row index
*is* the order a fresh ``design.nets.values()`` walk would meet the
edge in.  A row whose driver or sink names no cell keeps its place with
``-1`` for the missing end.  Clock and driverless nets own no rows and
nothing about them is stored.

**Placed blocks.**  A block-backed design (:class:`~repro.netlist.
design.Design`: placed component images interleaved with glue objects)
is compiled as it stands, and never asked for ``cells`` or ``nets``.
Each :class:`~repro.netlist.block.Block` is *one entry* of the cell
list and one of the net list, standing for a run of slots and rows: its
``seq`` / logic / setup columns fill its run of the slot columns, and
its rows are a **chunk** of their own (:class:`_Chunk`) — the ``src`` /
``dst`` / fanout arrays the image keeps (:meth:`Block.timing_rows`,
cell rows of the block) and the routed delays it keeps for this anchor's
I/O columns and this delay model (:meth:`Block.routed_delays`), never
copied into the row columns.  Those (``r_*``) hold the *glue* rows only,
each with its place ``g_row`` in row order.  The diff below treats a
block like any other entry — compared by identity, carried over or
compiled afresh whole — and runs its per-object comparisons over the
glue, so a re-sync splices glue rows and costs what changed, not what
is placed; the report keeps each chunk's best row and recomputes it
only when an arrival inside the block moved.  Slot and row order equal
the flattened design's, hence so do the first-max-wins ties and the
whole report.  Anything with no columnar form (a delay model overriding
a per-cell method, no routing graph) touches ``design.cells`` first and
is timed from the objects.

Three mechanisms carry the speedup:

* **column diff** — :meth:`TimingGraph.sync` rebuilds the columns the
  design would compile to *now* with list comprehensions and compares
  them to the stored ones with list ``==`` (an identity check per
  element, at C speed): the cell objects and their dict keys, the data
  nets, their drivers, fanouts and flattened sinks, the flattened route
  objects, the cell placements.  Only when a comparison fails does it
  look for *where*.  Nets that are still the same object with the same
  driver and sinks carry their rows over, wherever the net now sits in
  dict order; everything else is compiled afresh — by the same routine,
  whether that is one split net or, on the first sync, all of them.
  Rows whose route object or (for unrouted rows) endpoint placement
  changed are re-timed; every routed row a sync has to time goes
  through one :meth:`~repro.fabric.interconnect.RoutingGraph.
  path_metrics_batch` call and one array evaluation of the delay model;
* **cone-limited repropagation** — :meth:`repropagate` re-levelizes and
  recomputes arrival times only through the dirty set's transitive
  combinational fan-out, pruning cells whose (arrival, predecessor)
  pair comes out unchanged.  Its fan-in / fan-out adjacency is a pair
  of CSR offset arrays over the rows, sorted by ``(cell, row)`` and
  built only when a combinational cell is actually dirty;
* **row order is scan order** — replacing a dict entry in Python moves
  it to the *end* of iteration order while in-place mutation keeps its
  position; rows are (re)assembled in the design's current dict order,
  so ``(sink slot, row)`` reproduces exactly the iteration order of the
  reference's nested loops.  The endpoint scan is a vectorised maximum
  — over the glue rows, combined with each chunk's own — whose ties go
  to the smallest ``(sink slot, row)`` — the strict first-max-wins
  rule — which makes the whole
  :class:`~repro.timing.sta.TimingReport` bit-identical to the
  reference.

What counts as a visible edit: adding, removing, replacing or
re-ordering entries of ``design.cells`` / ``design.nets``; assigning
``net.driver``, ``net.is_clock``, ``net.sinks`` (or mutating the sinks
list); assigning an entry of ``net.routes``; assigning
``cell.placement``; setting or clearing ``design.metadata["cts"]``.
Cells only ever *appended* keep every slot; any other change to the
cell dict recompiles the whole graph in bulk, which is cheap enough not
to need a patch path of its own.

Contract: cell *timing* attributes (``ctype``, ``comb_depth``, ``seq``,
the spec behind ``logic_delay_ps``/``setup_ps``) are treated as
immutable once a cell is compiled — replace the cell object instead.
Route lists must be **replaced**, not mutated in place (the router
always assigns fresh lists), since the delay memo keys on list
identity.  Designs with dangling endpoint references behave like the
reference (``KeyError``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import accumulate, chain, compress, repeat
from operator import is_not

import numpy as np

from ..fabric.device import Device
from ..fabric.interconnect import RoutingGraph
from ..netlist.block import Block
from ..netlist.design import Design
from .delays import DEFAULT_DELAYS, DelayModel
from .sta import TimingError, TimingReport, clock_terms, combinational_loops

__all__ = ["TimingGraph"]

#: Reference implementation every report of the compiled graph is asserted
#: bit-identical to, whether it was compiled from objects or from placed
#: blocks (oracle contract, lint rules ORC-001..003).
ORACLE = "repro.timing.sta.analyze_reference"


#: Slots a compile leaves room for behind the cells it appends: the
#: registers a pipelining pass inserts then cost no copy of the columns.
_SLOT_ROOM = 64


def _flat_routes(nets: list, fanout: list[int]) -> list:
    """``routes[i] if i < len(routes) else None`` of every sink, flattened."""
    routes = [n.routes for n in nets]
    if list(map(len, routes)) != fanout:
        routes = [(r + [None] * f)[:f] for r, f in zip(routes, fanout)]
    return list(chain.from_iterable(routes))


def _match_len(a: list, i: int, b: list, j: int) -> int:
    """How many leading elements ``a[i:]`` and ``b[j:]`` share.

    Gallops, then bisects, on slice comparisons (C speed; identical
    elements short-cut), so the cost follows the answer, not the lists.
    """
    limit = min(len(a) - i, len(b) - j)
    lo, step = 0, 64
    while lo < limit and a[i + lo:i + lo + step] == b[j + lo:j + lo + step]:
        lo += step
        step *= 2
    lo = min(lo, limit)
    hi = min(lo + step, limit)
    while lo < hi:  # the first lo elements agree; no more than hi do
        mid = (lo + hi + 1) // 2
        if a[i + lo:i + mid] == b[j + lo:j + mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _rows_best(rows, delay: np.ndarray, arrival: np.ndarray, setup: np.ndarray,
               seq: np.ndarray) -> tuple:
    """``(worst total, sink, row, driver, rows landing on a register)``
    over a block's *rows* (ends as cell rows of the block; per cell its
    *arrival*, *setup* and *seq*): first max wins — of the rows tied at
    the maximum, the first one of the earliest sink."""
    ends = np.flatnonzero(seq[rows.dst])
    if not ends.size:
        return -np.inf, -1, -1, -1, 0
    total = arrival[rows.src[ends]] + delay[ends] + setup[rows.dst[ends]]
    worst = total.max()
    tied = ends[total == worst]
    k = int(tied[np.argmin(rows.dst[tied])])
    return float(worst), int(rows.dst[k]), k, int(rows.src[k]), len(ends)


def _then(column: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """*column* followed by *tail* — *tail* itself while *column* is
    empty, so a first compile holds no second copy of its rows."""
    return np.concatenate((column, tail)) if len(column) else tail


class _Retired:
    """Where a glue net taken out of the design sat: its rows stay in the
    columns, retired — no ends, so no arrival, path or memo reads them —
    until a splice drops them.  What the sync diff reads of a net it
    holds unchanged: no driver, and a blank sink and no route per row."""

    __slots__ = ("driver", "sinks", "routes")

    def __init__(self, n_rows: int) -> None:
        self.driver = None
        self.sinks = [""] * n_rows
        self.routes = [None] * n_rows


class _Chunk:
    """A placed block's rows: its own arrays, carried by identity.

    ``rows`` is :meth:`Block.timing_rows` (``src`` / ``dst`` are cell
    rows of the block: add its first slot) and ``delay`` its
    :meth:`Block.routed_delays` — both what the image keeps, not copies.
    ``best`` is its :func:`_rows_best` (cells as rows of the block, the
    row as a row of the chunk) as of the last report, ``None`` while an
    arrival it was computed from may have moved.
    """

    __slots__ = ("block", "rows", "delay", "best")

    def __init__(self, block: Block, graph: RoutingGraph, delays: DelayModel) -> None:
        self.block = block
        self.rows = block.timing_rows()
        self.delay = block.routed_delays(graph, delays)
        self.best: tuple | None = None


class TimingGraph:
    """Columnar timing graph, kept in sync with a mutating design.

    Built empty and populated by the first :meth:`sync`; afterwards each
    ``sync`` is an incremental diff.  ``state_rev`` advances whenever a
    sync changes anything a report could see; ``topo_rev`` advances only
    on structural (cell/net) changes — loop detection memoizes on it.
    """

    def __init__(
        self,
        design: Design,
        device: Device | None = None,
        graph: RoutingGraph | None = None,
        delays: DelayModel = DEFAULT_DELAYS,
    ) -> None:
        self.design = design
        self.device = device
        self.graph = graph
        self.delays = delays
        self.state_rev = 0
        self.topo_rev = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self._clock_terms: tuple[float, float] | None = None
        self._reset()

    def _reset(self) -> None:
        """Empty columns: the next sync compiles every cell and net."""
        # Cells.  One *entry* per glue cell or placed block, in design
        # order; an entry owns one slot, a block one per cell.
        self.cell_objs: list = []                # entries: Cell | Block
        self.cell_names: list = []               # their dict keys / instance names
        self.cell_index: dict[str, int] = {}     # glue cell name -> slot
        self.block_slot: dict = {}               # Block -> its first slot
        self.block_named: dict = {}              # instance name -> Block
        self.block_firsts: list[int] = []        # the first slots, ascending,
        self.block_order: list = []              # of these blocks
        self.g_cells: list = []                  # the glue cells, their dict keys ...
        self.g_names: list[str] = []
        self.g_slot = np.zeros(0, dtype=np.int64)   # ... and their slots
        self.cell_pl: list = []                  # ... and placements as of the last sync
        self.cell_seq = np.zeros(0, dtype=bool)  # views of the front of _slot_room
        self.cell_logic = np.zeros(0)
        self.cell_setup = np.zeros(0)
        self._slot_room = [np.zeros(0, dtype=bool), np.zeros(0), np.zeros(0), np.zeros(0)]
        # Nets.  One entry per glue data net or placed block, in design
        # order; a block entry owns the rows of all its live data nets.
        self.data_nets: list = []                # entries: Net | Block
        self.net_fanout: list[int] = []          # rows per entry: diff(net_off)
        self.net_off = np.zeros(1, dtype=np.int64)  # rows of entry j: off[j]..off[j+1]
        self.net_missing: set[int] = set()       # entries with an absent endpoint
        self.n_retired = 0                       # _Retired entries, and their rows
        self.retired_rows = 0
        self.g_nets: list = []                   # the glue nets among the entries ...
        self.g_entry = np.zeros(0, dtype=np.int64)  # ... where they sit ...
        self.net_driver: list = []               # ... their drivers, fanouts, and per
        self.g_fanout: list[int] = []            # glue row the sink name, the route
        self.r_sink: list[str] = []              # object (delay-memo key: identity)
        self.r_route: list = []                  # and the row it is
        self.g_row = np.zeros(0, dtype=np.int64)
        self.b_entry: list[int] = []             # the block entries, how many nets
        self.b_live: list[int] = []              # each had when it was compiled,
        self.chunks: list[_Chunk] = []           # and their rows
        # Glue rows: one per (glue data net, sink), in row order.
        self.r_net = np.zeros(0, dtype=np.int64)  # entry index
        self.r_src = np.zeros(0, dtype=np.int64)  # cell slot, -1 when unknown
        self.r_dst = np.zeros(0, dtype=np.int64)
        self.r_fanout = np.zeros(0, dtype=np.int64)
        self.r_delay = np.zeros(0)
        self.r_routed = np.zeros(0, dtype=bool)  # timed from its route (else placements)
        # Arrival + delay + setup of a row that lands on a register (-inf
        # for one that does not, which a row never stops or starts doing),
        # as of the last report; ``r_redo`` marks the rows whose terms
        # have changed since.
        self.r_total = np.zeros(0)
        self.r_redo = np.zeros(0, dtype=bool)
        self._adj: tuple | None = None
        # Propagation state: arrival per slot; winning (src slot, net
        # name) per combinational cell that has one.
        self.out_time = np.zeros(0)             # (a view, like the slot columns)
        self.best_pred: dict[int, tuple[int, str]] = {}
        self.pending_dirty: set[int] = set()     # combinational slots only

    # -- sync: diff the design against the compiled columns ------------------

    def sync(self) -> None:
        """Fold any design mutations since the last sync into the graph."""
        design = self.design
        structural = False
        if design.blocks and (
            self.graph is None
            or self.delays._overrides("logic_delay_ps", "setup_ps", "cell_delays_ps",
                                      "net_delay_ps", "routed_net_delay_ps")
        ):
            design.cells  # no columnar form for this model: time the objects

        # Cells: appended entries extend the columns, anything else recompiles.
        names: list = []
        cells: list = []
        block_at: list[int] = []                 # which entries are blocks
        for part in design.cell_parts():
            if type(part) is Block:
                block_at.append(len(cells))
                names.append(part.instance)
                cells.append(part)
            else:
                names += part
                cells += part.values()
        n0 = len(self.cell_objs)
        if cells[:n0] != self.cell_objs or names[:n0] != self.cell_names:
            self._reset()
            n0 = 0
            structural = True
        if len(cells) > n0:
            self._add_cells(names[n0:], cells[n0:], [k - n0 for k in block_at if k >= n0])
            structural = True
        stale = np.zeros(len(self.r_src), dtype=bool)  # glue rows to re-time
        placements = [c.placement for c in self.g_cells]
        if placements != self.cell_pl:
            moved = np.zeros(len(self.cell_seq), dtype=bool)
            moved[self.g_slot[
                [i for i, (a, b) in enumerate(zip(placements, self.cell_pl)) if a != b]
            ]] = True
            self.cell_pl = placements
            live = ~self.r_routed & (self.r_src >= 0) & (self.r_dst >= 0)
            stale |= live & (moved[self.r_src] | moved[self.r_dst])

        # The nets compiled last time: edited in place?  Routes replaced?
        # (A block's rows can only change by losing a net.)
        old = self.g_nets
        sinks = [n.sinks for n in old]
        edited = self.net_missing
        if (
            [n.driver for n in old] != self.net_driver
            or list(map(len, sinks)) != self.g_fanout
            or list(chain.from_iterable(sinks)) != self.r_sink
        ):
            off = [0, *accumulate(self.g_fanout)]
            edited = edited | {
                int(self.g_entry[j]) for j, n in enumerate(old)
                if n.driver != self.net_driver[j]
                or n.sinks != self.r_sink[off[j]:off[j + 1]]
            }
        live_now = [self.data_nets[j].n_nets for j in self.b_entry]
        if live_now != self.b_live:
            edited = edited | {
                j for j, a, b in zip(self.b_entry, live_now, self.b_live) if a != b
            }
        routes = _flat_routes(old, self.g_fanout)
        same = _match_len(routes, 0, self.r_route, 0)
        if same < len(routes):
            stale[[
                same + i
                for i, (a, b) in enumerate(zip(routes[same:], self.r_route[same:]))
                if a is not b
            ]] = True

        # The entries the design has now, matched against those runs of
        # compiled entries they still are.  Dict order is the survivors in
        # their old order, then whatever was (re-)inserted since; so
        # where the lists part, the compiled net was removed (search
        # forward for the next survivor) or was edited in place, or
        # nothing compiled follows at all.  Whatever stays unmatched is
        # compiled afresh, which is always right.
        data: list = []
        for part in design.net_parts():
            if type(part) is Block:
                data.append(part)
            else:
                data += [n for n in part.values() if not n.is_clock and n.driver is not None]
        old = self.data_nets
        marked = old
        if edited:
            marked = list(old)
            for j in edited:
                marked[j] = None
        pieces: list[tuple[int, int, int]] = []  # compiled entries a..b, then k fresh ones
        fresh: list = []
        carried = i = j = 0
        while j < len(data):
            run = _match_len(marked, i, data, j)
            pieces.append((i, i + run, len(fresh)))
            carried += run
            i += run
            j += run
            if j == len(data):
                break
            if i < len(old) and old[i] is data[j]:  # edited: recompile in place
                fresh.append(data[j])
                i += 1
                j += 1
                continue
            try:
                i = marked.index(data[j], i)
            except ValueError:
                fresh += data[j:]
                break
        made: list[_Chunk] = []
        if fresh or carried < len(old) - self.n_retired:
            stale, made = self._assemble(data, pieces, fresh, stale, routes)
            structural = True
        else:
            self.r_route = routes

        # Every row not re-timed here is a memo hit: the glue's, and every
        # row of a chunk carried over (a block's rows are all routed and
        # both their ends known).
        rows = np.flatnonzero(stale)
        n_made = sum(len(chunk.delay) for chunk in made)
        if self.net_missing:
            self.memo_hits += int(np.count_nonzero(
                ~stale & (self.r_src >= 0) & (self.r_dst >= 0)
            )) + int(self.net_off[-1]) - len(stale) - n_made
        else:  # every row but a retired one has both ends
            self.memo_hits += int(self.net_off[-1]) - len(rows) - n_made - self.retired_rows
        self.memo_misses += n_made
        self._time(stale)
        self.r_redo[rows] = True
        self._mark_dirty(self.r_dst[rows])
        for chunk in made:
            self._mark_sinks_dirty(chunk)

        # CTS skew/insertion live in design metadata, outside the
        # cell/net diff — track them here so a clock-tree (re)build alone
        # invalidates the memoized report.
        terms = clock_terms(design, self.delays)
        if structural or rows.size or made or terms != self._clock_terms:
            self.state_rev += 1
        self._clock_terms = terms
        if structural:
            self.topo_rev += 1

    def _add_cells(self, names: list, entries: list, block_at: list[int]) -> None:
        """Append slots for *entries*: glue cells, and at the positions
        *block_at* whole blocks."""
        n0 = base = len(self.cell_seq)
        self.cell_objs += entries
        self.cell_names += names
        # One delay lookup for the glue cells of the batch; a block's
        # come with its image.
        asked: list = []
        runs: list = []                          # per run: a slice of asked, or (logic, setup)
        seq_parts = []
        glue_slots = [self.g_slot]
        at = 0
        for k in [*block_at, len(entries)]:
            run = entries[at:k]                  # the glue cells before the next block
            if run:
                slots = range(base, base + len(run))
                self.cell_index.update(zip(names[at:k], slots))
                self.g_cells += run
                self.g_names += names[at:k]
                self.cell_pl += [c.placement for c in run]
                glue_slots.append(np.arange(base, base + len(run)))
                seq_parts.append(np.array([bool(c.seq) for c in run], dtype=bool))
                runs.append(slice(len(asked), len(asked) + len(run)))
                asked += run
                base += len(run)
            if k < len(entries):
                block = entries[k]
                self.block_slot[block] = base
                self.block_named[block.instance] = block
                self.block_firsts.append(base)
                self.block_order.append(block)
                seq_parts.append(block.seq())
                runs.append(block.cell_delays(self.delays))
                base += block.n_cells
            at = k + 1
        logic, setup = self.delays.cell_delays_ps(asked) if asked else (None, None)
        logic = [logic[r] if type(r) is slice else r[0] for r in runs]
        self.g_slot = np.concatenate(glue_slots)
        # Seed: correct for sequential and zero-fan-in combinational
        # cells; dirty marking repropagates the rest.
        self._append_slots(base - n0, seq_parts, logic,
                           [setup[r] if type(r) is slice else r[1] for r in runs], logic)
        self.pending_dirty.update((n0 + np.flatnonzero(~self.cell_seq[n0:])).tolist())
        self._adj = None

    def _append_slots(self, n_new: int, *tails: list) -> None:
        """Append *n_new* slots to ``cell_seq``, ``cell_logic``,
        ``cell_setup`` and ``out_time``, from *tails*: per column, the
        runs of values in order.  Each column is the front of a buffer
        with room behind it, which grows geometrically — a register
        appended costs a slot, not the design — and the runs are written
        into it, not joined first."""
        n0 = len(self.cell_seq)
        n = n0 + n_new
        if n > len(self._slot_room[0]):
            columns = (self.cell_seq, self.cell_logic, self.cell_setup, self.out_time)
            room = max(n + _SLOT_ROOM, 2 * n0)
            self._slot_room = [np.empty(room, dtype=column.dtype) for column in columns]
            for buf, column in zip(self._slot_room, columns):
                buf[:n0] = column
        for buf, runs in zip(self._slot_room, tails):
            at = n0
            for run in runs:
                buf[at:at + len(run)] = run
                at += len(run)
        self.cell_seq, self.cell_logic, self.cell_setup, self.out_time = (
            buf[:n] for buf in self._slot_room)

    def _slots(self, names: list) -> np.ndarray:
        """Slot of each cell name, ``-1`` where the design has no such cell."""
        slots = np.fromiter(map(self.cell_index.get, names, repeat(-1)), np.int64, len(names))
        if self.block_slot:
            blocks = self.block_named
            for i in np.flatnonzero(slots < 0).tolist():
                for block in (blocks.get(names[i].partition("/")[0]), blocks.get(None)):
                    row = block.cell_row(names[i]) if block is not None else None
                    if row is not None:
                        slots[i] = self.block_slot[block] + row
                        break
        return slots

    def _assemble(
        self, data: list, pieces: list, fresh: list, stale: np.ndarray, routes: list
    ) -> tuple[np.ndarray, list[_Chunk]]:
        """Splice the net and glue-row columns for the entries *data*.

        Each of *pieces* is ``(a, b, k)``: compiled entries ``a..b`` carry
        their rows (and delays) over, then come the entries of *fresh*
        from the *k*-th up to the next piece's — compiled here, all in one
        go; on the first sync that is every net.  A block among them gets
        a chunk of its own, which no later splice copies.  *routes* are
        the current routes of the glue rows compiled so far.  Returns the
        glue rows' re-time mask (fresh, or *stale* before) and the fresh
        chunks.
        """
        # The glue nets among the fresh entries, compiled together ...
        nets = [e for e in fresh if type(e) is not Block]
        drivers = [net.driver for net in nets]
        sinks = [net.sinks for net in nets]
        fanout = list(map(len, sinks))
        flat = list(chain.from_iterable(sinks))
        slots = self._slots(drivers + flat)
        src = np.repeat(slots[:len(drivers)], fanout)
        dst = slots[len(drivers):]
        rows_fanout = np.repeat(np.array(fanout, dtype=np.int64), fanout)
        made = {}
        counts = fanout
        if len(nets) < len(fresh):               # ... and a chunk for each block among them
            made = {e: _Chunk(e, self.graph, self.delays) for e in fresh if type(e) is Block}
            counts = [len(made[e].delay) if e in made else len(e.sinks) for e in fresh]

        # Every compiled entry the pieces do not carry is gone from the
        # design.  Where the fresh entries all come after the last carried
        # one (dict order puts a new net at the end) and nothing gone is a
        # block, nothing moves: the gone nets' rows retire in place and
        # the fresh ones are appended.
        carried = np.zeros(len(self.data_nets), dtype=bool)
        for a, b, _ in pieces:
            carried[a:b] = True
        gone_entries = np.flatnonzero(~carried).tolist()
        if all(k == 0 for _, _, k in pieces) and all(
                type(self.data_nets[j]) is not Block for j in gone_entries):
            return self._retire_and_append(
                [j for j in gone_entries if type(self.data_nets[j]) is not _Retired],
                fresh, nets, drivers, fanout, flat, src, dst, rows_fanout, made, counts,
                stale, routes)

        # Three ways to count along the old and the new entry lists: by
        # entry, by glue net, by glue row (without blocks: by entry, by row).
        def counted(entries, weights, blocks: bool) -> tuple:
            by_entry = range(len(entries) + 1)
            if not blocks:
                return by_entry, by_entry, [0, *accumulate(weights)]
            is_glue = [type(e) is not Block for e in entries]
            return (
                by_entry, [0, *accumulate(is_glue)],
                [0, *accumulate(w if g else 0 for w, g in zip(weights, is_glue))],
            )

        old_at = counted(self.data_nets, self.net_fanout, bool(self.b_entry))
        new_at = counted(fresh, counts, bool(made))
        cuts = [*(k for _, _, k in pieces[1:]), len(fresh)]
        BY_ENTRY, BY_GLUE_NET, BY_GLUE_ROW = range(3)

        def splice(column, compiled, by) -> list:
            old, new = old_at[by], new_at[by]
            parts = []
            for (a, b, k), until in zip(pieces, cuts):
                if a < b:
                    parts.append(column[old[a]:old[b]])
                if k < until:
                    parts.append(compiled[new[k]:new[until]])
            return parts or [column[:0]]

        def joined(column, compiled, by) -> np.ndarray:
            parts = splice(column, compiled, by)
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        # What the rows that go had reached is for their sinks to redo.
        gone = np.ones(len(stale), dtype=bool)
        for a, b, _ in pieces:
            gone[old_at[BY_GLUE_ROW][a]:old_at[BY_GLUE_ROW][b]] = False
        self._mark_dirty(self.r_dst[gone])
        old_chunks = {}
        for j, chunk in zip(self.b_entry, self.chunks):
            old_chunks[chunk.block] = chunk
            if not carried[j]:
                self._mark_sinks_dirty(chunk)
        n_rows = new_at[BY_GLUE_ROW][-1]
        retime = joined(stale, np.ones(n_rows, dtype=bool), BY_GLUE_ROW)
        self.r_delay = joined(self.r_delay, np.zeros(n_rows), BY_GLUE_ROW)
        self.r_routed = joined(self.r_routed, np.zeros(n_rows, dtype=bool), BY_GLUE_ROW)
        self.r_total = joined(self.r_total, np.full(n_rows, -np.inf), BY_GLUE_ROW)
        self.r_redo = joined(self.r_redo, np.ones(n_rows, dtype=bool), BY_GLUE_ROW)
        self.r_src = joined(self.r_src, src, BY_GLUE_ROW)
        self.r_dst = joined(self.r_dst, dst, BY_GLUE_ROW)
        self.r_fanout = joined(self.r_fanout, rows_fanout, BY_GLUE_ROW)
        self.r_sink = list(chain.from_iterable(splice(self.r_sink, flat, BY_GLUE_ROW)))
        self.r_route = list(chain.from_iterable(
            splice(routes, _flat_routes(nets, fanout), BY_GLUE_ROW)))
        self.net_driver = list(chain.from_iterable(
            splice(self.net_driver, drivers, BY_GLUE_NET)))
        self.g_fanout = list(chain.from_iterable(splice(self.g_fanout, fanout, BY_GLUE_NET)))
        self.net_fanout = list(chain.from_iterable(splice(self.net_fanout, counts, BY_ENTRY)))
        self.data_nets = data
        width = np.array(self.net_fanout, dtype=np.int64)
        self.net_off = np.concatenate(([0], np.cumsum(width)))
        if self.b_entry or made:
            is_glue = np.fromiter((type(e) is not Block for e in data), bool, len(data))
            self.g_entry = np.flatnonzero(is_glue)
            self.g_nets = [data[j] for j in self.g_entry.tolist()]
            glue_width = width[self.g_entry]
            self.r_net = np.repeat(self.g_entry, glue_width)
            # each glue row's place in row order: its net's first row, plus
            # how far into the net it is
            into = np.arange(len(self.r_net)) - np.repeat(
                np.cumsum(glue_width) - glue_width, glue_width)
            self.g_row = self.net_off[self.r_net] + into
            self.b_entry = np.flatnonzero(~is_glue).tolist()
            self.b_live = [data[j].n_nets for j in self.b_entry]
            self.chunks = [made[data[j]] if data[j] in made else old_chunks[data[j]]
                           for j in self.b_entry]
        else:
            self.g_entry, self.g_nets = np.arange(len(data)), list(data)
            self.r_net = np.repeat(np.arange(len(data)), width)
            self.g_row = np.arange(len(self.r_net))
        # Nets with missing endpoints sit outside the memo (their error
        # status depends on routes and the cell set); recompile them
        # every sync so it never goes stale.  Valid designs have none —
        # and since they are never carried over, only a fresh row can be
        # one (never a block's).
        self.net_missing = set()
        if (src < 0).any() or (dst < 0).any():
            self.net_missing = set(self.r_net[(self.r_src < 0) | (self.r_dst < 0)].tolist())
        self.n_retired = self.retired_rows = 0
        self._adj = None
        return retime, list(made.values())

    def _retire_and_append(
        self, gone: list[int], fresh: list, nets: list, drivers: list, fanout: list,
        flat: list, src: np.ndarray, dst: np.ndarray, rows_fanout: np.ndarray, made: dict,
        counts: list, stale: np.ndarray, routes: list,
    ) -> tuple[np.ndarray, list[_Chunk]]:
        """:meth:`_assemble` where no compiled entry moves: the glue nets
        *gone* (entries) retire — their sinks lose an input, their rows
        keep their place with no ends — and the *fresh* entries, compiled
        by the caller, go after every compiled one.  Costs what was taken
        out and added, not the rows carried."""
        self.r_route = routes
        for j in gone:                           # a glue net's rows are a run
            a, b = np.searchsorted(self.r_net, (j, j + 1)).tolist()
            q = int(np.searchsorted(self.g_entry, j))
            self._mark_dirty(self.r_dst[a:b])
            for column, value in ((self.r_src, -1), (self.r_dst, -1), (self.r_total, -np.inf),
                                  (self.r_redo, False), (self.r_routed, False), (stale, False)):
                column[a:b] = value
            retired = _Retired(b - a)
            self.data_nets[j] = self.g_nets[q] = retired
            self.net_driver[q] = None
            self.r_sink[a:b] = retired.sinks
            self.r_route[a:b] = retired.routes
            self.net_missing.discard(j)
            self.n_retired += 1
            self.retired_rows += b - a
            self._adj = None
        if not fresh:
            return stale, []

        n_old = len(self.data_nets)
        self.data_nets += fresh
        self.net_fanout += counts
        self.net_off = _then(self.net_off, self.net_off[-1] + np.cumsum(counts))
        entries = np.arange(n_old, n_old + len(fresh))
        if made:
            is_glue = np.fromiter((type(e) is not Block for e in fresh), bool, len(fresh))
            self.b_entry += entries[~is_glue].tolist()
            self.b_live += [e.n_nets for e in fresh if type(e) is Block]
            self.chunks += [made[e] for e in fresh if type(e) is Block]
            entries = entries[is_glue]
        self.g_entry = _then(self.g_entry, entries)
        self.g_nets += nets
        self.net_driver += drivers
        self.g_fanout += fanout
        self.r_sink += flat
        self.r_route += _flat_routes(nets, fanout)
        r_net = np.repeat(entries, fanout)
        width = np.array(fanout, dtype=np.int64)
        into = np.arange(len(r_net)) - np.repeat(np.cumsum(width) - width, width)
        n_rows = len(r_net)
        self.r_net = _then(self.r_net, r_net)
        self.g_row = _then(self.g_row, self.net_off[r_net] + into)
        self.r_src = _then(self.r_src, src)
        self.r_dst = _then(self.r_dst, dst)
        self.r_fanout = _then(self.r_fanout, rows_fanout)
        self.r_delay = _then(self.r_delay, np.zeros(n_rows))
        self.r_routed = _then(self.r_routed, np.zeros(n_rows, dtype=bool))
        self.r_total = _then(self.r_total, np.full(n_rows, -np.inf))
        self.r_redo = _then(self.r_redo, np.ones(n_rows, dtype=bool))
        missing = (src < 0) | (dst < 0)
        if missing.any():
            self.net_missing.update(r_net[missing].tolist())
        self._adj = None
        return _then(stale, np.ones(n_rows, dtype=bool)), list(made.values())

    def _time(self, stale: np.ndarray) -> None:
        """(Re)compute the delay of the glue rows marked in *stale*: the
        routed ones from a single batched path measurement, the rest from
        the placement estimate.  (A chunk's delays come with it.)"""
        rows = np.flatnonzero(stale)
        if not rows.size:
            return
        picked = [self.r_route[i] for i in rows.tolist()]
        routed = np.fromiter(map(is_not, picked, repeat(None)), bool, len(picked))
        if self.graph is None:
            routed[:] = False
        self.r_routed[rows] = routed
        live = (self.r_src[rows] >= 0) & (self.r_dst[rows] >= 0)
        self.memo_misses += int(np.count_nonzero(live))
        hot = routed & live
        if hot.any():
            tiles, crossings = self.graph.path_metrics_batch(
                list(compress(picked, hot.tolist()))
            )
            self.r_delay[rows[hot]] = self.delays.routed_delays_ps(
                tiles, crossings, self.r_fanout[rows[hot]]
            )
        cold = rows[live & ~routed]
        if not cold.size:
            return
        if self.delays._overrides("net_delay_ps"):
            off = self.net_off
            for i, j in zip(cold.tolist(), self.r_net[cold].tolist()):
                self.r_delay[i] = self.delays.net_delay_ps(
                    self.design, self.data_nets[j], int(self.g_row[i] - off[j]),
                    self.device, self.graph,
                )
            return
        # DelayModel.net_delay_ps of an unrouted connection, from the
        # endpoint placements the graph already tracks.
        for i, s, d, f in zip(cold.tolist(), self.r_src[cold].tolist(),
                              self.r_dst[cold].tolist(), self.r_fanout[cold].tolist()):
            self.r_delay[i] = self.delays.estimated_net_delay_ps(
                self.device, self._placement(s), self._placement(d), f
            )

    def _holder(self, slot: int) -> tuple:
        """``(block, its row)`` of a block's slot; ``(None, k)`` of the
        *k*-th glue cell's."""
        if self.block_slot:
            k = int(np.searchsorted(self.g_slot, slot))
            if k == len(self.g_slot) or self.g_slot[k] != slot:
                b = bisect_right(self.block_firsts, slot) - 1
                if b >= 0 and slot < self.block_firsts[b] + self.block_order[b].n_cells:
                    return self.block_order[b], slot - self.block_firsts[b]
            return None, k
        return None, slot

    def _cell(self, slot: int) -> tuple:
        """``(name, ctype, placement as of the last sync)`` of a slot."""
        block, k = self._holder(slot)
        if block is not None:
            return block.describe_cell(k)
        return self.g_names[k], self.g_cells[k].ctype, self.cell_pl[k]

    def _placement(self, slot: int) -> tuple[int, int] | None:
        """:meth:`_cell`'s placement alone."""
        block, k = self._holder(slot)
        return self.cell_pl[k] if block is None else block.placement(k)

    def _cell_name(self, slot: int) -> str:
        return self._cell(slot)[0]

    def _net_name(self, row: int) -> str:
        if self.chunks:                          # the entry whose rows include *row*
            j = int(np.searchsorted(self.net_off, row, side="right")) - 1
        else:                                    # every row is a glue row
            j = int(self.r_net[row])
        entry = self.data_nets[j]
        if type(entry) is not Block:
            return entry.name
        return entry.net_names([entry.timing_rows().net[row - int(self.net_off[j])]])[0]

    def _mark_dirty(self, slots: np.ndarray) -> None:
        """Queue the combinational cells among *slots* for repropagation."""
        slots = slots[slots >= 0]
        self.pending_dirty.update(slots[~self.cell_seq[slots]].tolist())

    def _mark_sinks_dirty(self, chunk: _Chunk) -> None:
        """:meth:`_mark_dirty` of every sink of *chunk*'s rows (of which
        there is none to queue where every cell is sequential)."""
        if chunk.block.seq_rows() is not None:
            self._mark_dirty(chunk.rows.dst + self.block_slot[chunk.block])

    # -- propagation ---------------------------------------------------------

    def _in_row_order(self, glue: np.ndarray, of_chunk) -> np.ndarray:
        """One column over every row, in row order: the glue rows'
        *glue* column laid out with ``of_chunk(chunk, first slot)`` of
        each chunk (just *glue*, where there are no chunks)."""
        if not self.chunks:
            return glue
        out = np.empty(int(self.net_off[-1]), dtype=glue.dtype)
        out[self.g_row] = glue
        for j, chunk in zip(self.b_entry, self.chunks):
            a = int(self.net_off[j])
            out[a:a + len(chunk.delay)] = of_chunk(chunk, self.block_slot[chunk.block])
        return out

    def _redo(self, rows: list[int]) -> None:
        """Mark *rows* (in row order) for the next report to recompute."""
        if not self.chunks:
            self.r_redo[rows] = True
            return
        rows = np.asarray(rows, dtype=np.int64)
        at = np.minimum(np.searchsorted(self.g_row, rows), max(len(self.g_row) - 1, 0))
        glue = self.g_row[at] == rows if len(self.g_row) else np.zeros(len(rows), bool)
        self.r_redo[at[glue]] = True
        entries = set((np.searchsorted(self.net_off, rows[~glue], side="right") - 1).tolist())
        for j, chunk in zip(self.b_entry, self.chunks):
            if j in entries:
                chunk.best = None

    def _adjacency(self) -> tuple:
        """CSR fan-in (by ``(dst, row)``) and fan-out over the live rows."""
        if self._adj is None:
            src = self._in_row_order(self.r_src, lambda c, base: c.rows.src + base)
            dst = self._in_row_order(self.r_dst, lambda c, base: c.rows.dst + base)
            live = np.flatnonzero((src >= 0) & (dst >= 0))
            slots = np.arange(len(self.cell_seq) + 1)
            by_dst = live[np.argsort(dst[live], kind="stable")]
            by_src = live[np.argsort(src[live], kind="stable")]
            self._adj = (
                by_dst.tolist(), np.searchsorted(dst[by_dst], slots).tolist(),
                by_src.tolist(), np.searchsorted(src[by_src], slots).tolist(),
                src.tolist(), dst.tolist(), self.cell_seq.tolist(),
            )
        return self._adj

    def repropagate(self) -> int:
        """Recompute arrivals through the dirty cone; return cells visited."""
        src, dst = self.r_src, self.r_dst
        orphan = np.flatnonzero((src < 0) & (dst >= 0))
        if orphan.size:
            # Mirror the reference for unknown drivers: the estimate path
            # KeyErrors on the driver lookup, and a combinational sink
            # KeyErrors at the comb-edge build — but a *routed* edge into
            # a sequential sink is silently excluded from the endpoint
            # scan.  Raised here, not in sync, so pure topology queries
            # (combinational_loops) still work.
            bad = orphan[~(self.r_routed[orphan] & self.cell_seq[dst[orphan]])]
            if bad.size:
                raise KeyError(self.data_nets[self.r_net[bad[0]]].driver)
        seeds = self.pending_dirty
        self.pending_dirty = set()
        if not seeds:
            return 0
        fan_in, in_off, fan_out, out_off, src, dst, seq = self._adjacency()
        cone = set(seeds)
        stack = list(seeds)
        while stack:
            c = stack.pop()
            for e in fan_out[out_off[c]:out_off[c + 1]]:
                d = dst[e]
                if not seq[d] and d not in cone:
                    cone.add(d)
                    stack.append(d)
        indeg = {
            c: sum(src[e] in cone for e in fan_in[in_off[c]:in_off[c + 1]])
            for c in cone
        }
        queue: deque[int] = deque(c for c in cone if indeg[c] == 0)
        needs = set(seeds)
        out = self.out_time
        best = self.best_pred
        logic = self.cell_logic
        delay = self._in_row_order(self.r_delay, lambda c, base: c.delay)
        moved: list[int] = []                    # rows leaving a cell whose arrival changed
        processed = 0
        while queue:
            c = queue.popleft()
            processed += 1
            changed = False
            if c in needs:
                # Same strict first-max-wins scan as the reference's
                # _worst_arrival, over the row-ordered fan-in.
                worst = 0.0
                via = -1
                for e in fan_in[in_off[c]:in_off[c + 1]]:
                    arr = out[src[e]] + delay[e]
                    if arr > worst:
                        worst = arr
                        via = e
                pred = (src[via], self._net_name(via)) if via >= 0 else None
                new = worst + logic[c]
                if new != out[c] or pred != best.get(c):
                    out[c] = new
                    if pred is None:
                        best.pop(c, None)
                    else:
                        best[c] = pred
                    changed = True
                    moved += fan_out[out_off[c]:out_off[c + 1]]
            for e in fan_out[out_off[c]:out_off[c + 1]]:
                d = dst[e]
                if d in indeg:
                    indeg[d] -= 1
                    if changed:
                        needs.add(d)
                    if indeg[d] == 0:
                        queue.append(d)
        self._redo(moved)
        if processed < len(cone):
            self._raise_loop([self._cell_name(c) for c in cone if indeg[c] > 0])
        return processed

    def _raise_loop(self, unresolved: list[str]) -> None:
        loops = combinational_loops(self.design)
        if loops:
            detail = "; ".join(
                ", ".join(loop[:5]) + (f" (+{len(loop) - 5} more)" if len(loop) > 5 else "")
                for loop in loops[:3]
            )
        else:
            detail = f"{sorted(unresolved)[:5]} (+{max(0, len(unresolved) - 5)} more)"
        raise TimingError(
            f"design {self.design.name}: combinational loop involving {detail}"
        )

    # -- reporting -----------------------------------------------------------

    def _chunk_best(self, chunk: _Chunk) -> tuple:
        """``chunk.best``, recomputed if an arrival moved since."""
        if chunk.best is None:
            block = chunk.block
            if block.seq_rows() is None and block.live_rows() is None:
                # Every driver is a register, whose arrival is its logic
                # delay: the best row follows from the image, this
                # anchor's routes and the delay model, and is kept there.
                chunk.best = block.keep(self.graph, "register_best", lambda block: _rows_best(
                    block.timing_rows(), block.routed_delays(self.graph, self.delays),
                    *block.cell_delays(self.delays), block.seq()), self.delays)
            else:
                at = slice(self.block_slot[block], self.block_slot[block] + block.n_cells)
                chunk.best = _rows_best(chunk.rows, chunk.delay, self.out_time[at],
                                        self.cell_setup[at], self.cell_seq[at])
        return chunk.best

    def report(self) -> TimingReport:
        """Endpoint scan + path reconstruction, reference iteration order."""
        name = self._cell_name
        out = self.out_time
        src, dst = self.r_src, self.r_dst
        # Totals are kept per row and recomputed only where a term moved
        # since the last report (a re-timed or fresh row, a new arrival
        # at its driver): the scan below is over stored floats — the glue
        # rows', and one best row per chunk.
        redo = np.flatnonzero(self.r_redo)
        if redo.size:
            live = redo[(src[redo] >= 0) & (dst[redo] >= 0)]
            ends = live[self.cell_seq[dst[live]]]  # rows landing on a register
            self.r_total[ends] = out[src[ends]] + self.r_delay[ends] + self.cell_setup[dst[ends]]
            self.r_redo.fill(False)
        total = self.r_total
        overhead, insertion = clock_terms(self.design, self.delays)
        bests = [(self._chunk_best(chunk), int(self.net_off[j]), self.block_slot[chunk.block])
                 for j, chunk in zip(self.b_entry, self.chunks)]
        worst = max([float(total.max()) if total.size else -np.inf,
                     *(best[0] for best, _, _ in bests)])
        if not worst > 0.0:
            worst = float(out.max()) if out.size else 0.0
            return TimingReport(self.design.name, worst, overhead, [], 0, insertion)
        # First max wins, scanning sinks in cell order and each sink's
        # fan-in in row order: of the rows tied at the maximum, take the
        # first one of the earliest sink — among the glue rows (ascending
        # already) and each chunk's own such row.
        candidates = [(base + best[1], first + best[2], base + best[3])
                      for best, first, base in bests if best[0] == worst]
        tied = np.flatnonzero(total == worst)
        if tied.size:
            k = int(tied[np.argmin(dst[tied])])
            candidates.append((int(dst[k]), int(self.g_row[k]), int(src[k])))
        sink, row, cursor = min(candidates)
        path: list[tuple[str, str | None]] = [(name(sink), self._net_name(row))]
        guard = 0
        while cursor >= 0 and guard < len(out) + 1:
            pred = self.best_pred.get(cursor)
            path.append((name(cursor), pred[1] if pred else None))
            cursor = pred[0] if pred else -1
            guard += 1
        path.reverse()
        n_paths = int(np.count_nonzero(total > -np.inf)) + sum(best[4] for best, _, _ in bests)
        return TimingReport(self.design.name, worst, overhead, path, n_paths, insertion)
