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
list and one of the net list, standing for a run of slots and rows.
Its slots are a chunk of the slot columns: the ``seq`` / logic / setup
arrays the image keeps (:meth:`Block.seq`, :meth:`Block.cell_delays`)
and, for arrival, the logic column itself while every cell of the block
is a register (whose arrival is its logic delay for good) — never
copied into the glue's slot columns, which hold the glue cells only,
each at its slot ``g_slot``.  Its rows are a **chunk** of their own
(:class:`_Chunk`) — the ``src`` / ``dst`` / fanout arrays the image
keeps (:meth:`Block.timing_rows`, cell rows of the block) and the
routed delays it keeps for this anchor's I/O columns and this delay
model (:meth:`Block.routed_delays`), never copied into the row columns.
Those (``r_*``, packed one array per dtype) hold the *glue* rows only,
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
from itertools import accumulate, chain, compress, count, repeat
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


#: Slots and glue rows a compile leaves room for behind the ones it
#: appends: the registers a pipelining pass inserts and the rows of the
#: nets it splits then cost no copy of the columns.
_SLOT_ROOM = 64

#: The slot columns: a block keeps them as ``(seq, logic, setup, arrival)``.
_SEQ, _LOGIC, _SETUP, _ARRIVAL = range(4)


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
    ends = seq[rows.dst].nonzero()[0]
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
        # A delay model overriding a per-object method has no columnar
        # form: a block-backed design is then timed from its objects.
        self._objects_only = graph is None or delays._overrides(
            "logic_delay_ps", "setup_ps", "cell_delays_ps", "net_delay_ps", "routed_net_delay_ps")
        self._net_delay_overridden = delays._overrides("net_delay_ps")
        self._reset()

    def _reset(self) -> None:
        """Empty columns: the next sync compiles every cell and net."""
        # Cells.  One *entry* per glue cell or placed block, in design
        # order; an entry owns one slot, a block one per cell.
        self.cell_objs: list = []                # entries: Cell | Block
        self.cell_names: list = []               # their dict keys / instance names
        self.cell_index: dict[str, int] = {}     # glue cell name -> glue position
        self.n_slots = 0
        self.block_slot: dict = {}               # Block -> its first slot
        self.block_firsts: list[int] = []        # the first slots, ascending,
        self.block_order: list = []              # of these blocks,
        self.block_cols: dict = {}               # and each one's slot columns
        self.g_cells: list = []                  # the glue cells, their dict keys ...
        self.g_names: list[str] = []
        self.g_slot = np.zeros(0, dtype=np.int64)   # ... and their slots (with
        self.glue_pos: dict[int, int] = {}       # blocks, slot -> glue position)
        self.cell_pl: list = []                  # ... and placements as of the last sync
        # The glue's slot columns by glue position: ``seq``, and logic /
        # setup / arrival as one float array — views of the front of
        # _glue_room.
        self.g_seq = np.zeros(0, dtype=bool)
        self.g_time = np.zeros((3, 0))
        self._glue_room = (self.g_seq, self.g_time)
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
        self.g_fanout: list[int] = []            # glue row the sink name and the route
        self.r_sink: list[str] = []              # object (delay-memo key: identity)
        self.r_route: list = []
        self.b_entry: list[int] = []             # the block entries, how many nets
        self.b_live: list[int] = []              # each had when it was compiled,
        self.chunks: list[_Chunk] = []           # and their rows, which the last
        self._bests: tuple | None = None         # report summed up (_chunks_best)
        # Glue rows: one per (glue data net, sink), in row order, their
        # columns packed one array per dtype (_rows, with room behind):
        #   r_src, r_dst    cell slots, -1 when unknown
        #   r_fanout        sinks of the row's net
        #   r_net, g_row    entry index; place in row order
        #   r_delay         the row's net delay
        #   r_total         arrival + delay + setup of a row that lands on
        #                   a register (-inf for one that does not, which a
        #                   row never stops or starts doing), as of the
        #                   last report
        #   r_setup         the sink's setup time ...
        #   r_capture       ... and whether it is a register; whether the
        #   r_launch_reg    driver is one, and then its arrival for good
        #   r_launch        (its logic delay): read once per row
        #   r_routed        timed from its route (else placements)
        #   r_redo          terms changed since the last report
        self.n_rows = 0
        self._rows = (np.zeros((5, 0), dtype=np.int64), np.zeros((4, 0)),
                      np.zeros((4, 0), dtype=bool))
        self._row_views()
        self._adj: tuple | None = None
        # Propagation state: arrival per slot (the slot columns); winning
        # (src slot, net name) per combinational cell that has one.
        self.best_pred: dict[int, tuple[int, str]] = {}
        self.pending_dirty: set[int] = set()     # combinational slots only

    # -- sync: diff the design against the compiled columns ------------------

    def sync(self) -> None:
        """Fold any design mutations since the last sync into the graph."""
        design = self.design
        structural = False
        if self._objects_only and design.blocks:
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
        stale = np.zeros(self.n_rows, dtype=bool)  # glue rows to re-time
        placements = [c.placement for c in self.g_cells]
        if placements != self.cell_pl:
            moved = self.g_slot[
                [i for i, (a, b) in enumerate(zip(placements, self.cell_pl)) if a != b]]
            self.cell_pl = placements
            live = ~self.r_routed & (self.r_src >= 0) & (self.r_dst >= 0)
            stale |= live & (np.isin(self.r_src, moved) | np.isin(self.r_dst, moved))

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
        rows = stale.nonzero()[0]
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
        self._mark_rows_dirty(rows)
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
        base = self.n_slots
        self.cell_objs += entries
        self.cell_names += names
        # One delay lookup for the glue cells of the batch; a block's
        # slot columns are the arrays its image keeps.
        asked: list = []
        glue_slots = [self.g_slot]
        at = 0
        for k in [*block_at, len(entries)]:
            run = entries[at:k]                  # the glue cells before the next block
            if run:
                self.cell_index.update(zip(names[at:k], count(len(self.g_cells))))
                self.g_cells += run
                self.g_names += names[at:k]
                self.cell_pl += [c.placement for c in run]
                glue_slots.append(np.arange(base, base + len(run)))
                asked += run
                base += len(run)
            if k < len(entries):
                block = entries[k]
                self.block_slot[block] = base
                self.block_firsts.append(base)
                self.block_order.append(block)
                seq = block.seq()
                logic, setup = block.cell_delays(self.delays)
                # Arrival is seeded with the logic delay, which is a
                # register's for good: the image's column serves a block
                # of registers, one with combinational cells gets its own.
                if block.seq_rows() is None:
                    self.block_cols[block] = (seq, logic, setup, logic)
                else:
                    self.block_cols[block] = (seq, logic, setup, logic.copy())
                    self.pending_dirty.update((base + (~seq).nonzero()[0]).tolist())
                base += block.n_cells
            at = k + 1
        self.n_slots = base
        if asked:
            self.g_slot = np.concatenate(glue_slots)
            if self.block_order:
                n0 = len(self.glue_pos)
                self.glue_pos.update(zip(self.g_slot[n0:].tolist(), count(n0)))
            seq = np.array([bool(c.seq) for c in asked], dtype=bool)
            self._append_glue(seq, *self.delays.cell_delays_ps(asked))
            # Seed: correct for sequential and zero-fan-in combinational
            # cells; dirty marking repropagates the rest.
            self.pending_dirty.update(
                self.g_slot[len(self.g_seq) - len(asked) + (~seq).nonzero()[0]].tolist())
        self._adj = None

    def _append_glue(self, seq: np.ndarray, logic: np.ndarray, setup: np.ndarray) -> None:
        """Append glue slots to ``g_seq`` / ``g_time`` (arrival seeded
        with the logic delay).  Each is the front of a buffer with room
        behind it, which grows geometrically — a register appended costs
        a slot, not the design."""
        n0 = len(self.g_seq)
        n = n0 + len(seq)
        if n > len(self._glue_room[0]):
            room = max(n + _SLOT_ROOM, 2 * n0)
            self._glue_room = (np.empty(room, dtype=bool), np.empty((3, room)))
            self._glue_room[0][:n0] = self.g_seq
            self._glue_room[1][:, :n0] = self.g_time
        seq_buf, time_buf = self._glue_room
        seq_buf[n0:n] = seq
        time_buf[_LOGIC - 1, n0:n] = logic
        time_buf[_SETUP - 1, n0:n] = setup
        time_buf[_ARRIVAL - 1, n0:n] = logic
        self.g_seq, self.g_time = seq_buf[:n], time_buf[:, :n]

    def _glue_column(self, which: int) -> np.ndarray:
        return self.g_seq if which == _SEQ else self.g_time[which - 1]

    def _arrivals(self, slots: np.ndarray) -> np.ndarray:
        """Arrival at each of *slots* (real ones): from the glue's column,
        or from the array of the block holding the slot."""
        glue = self.g_time[_ARRIVAL - 1]
        if not self.block_order:                 # every slot is a glue slot
            return glue[slots]
        out = np.empty(len(slots))
        for i, slot in enumerate(slots.tolist()):
            block, k = self._holder(slot)
            out[i] = glue[k] if block is None else self.block_cols[block][_ARRIVAL][k]
        return out

    def _new_rows(self, drivers: list, flat: list, fanout: list) -> tuple:
        """The packed columns of fresh glue rows (``r_net`` and ``g_row``
        left for the caller), one per (net, sink) of the nets with
        *drivers*, sinks *flat* and *fanout*: untimed, to be redone, each
        end's constant terms read where its name resolves."""
        n = len(flat)
        slots, seq, setup, logic = self._ends(drivers + flat)
        drivers = len(drivers)
        floats = np.zeros((4, n))
        floats[1] = -np.inf                      # total
        floats[2] = setup[drivers:]
        floats[3] = logic[:drivers].repeat(fanout)
        bools = np.zeros((4, n), dtype=bool)
        bools[1] = True                          # redo
        bools[2] = seq[drivers:]
        bools[3] = seq[:drivers].repeat(fanout)
        ints = np.empty((5, n), dtype=np.int64)
        ints[0] = slots[:drivers].repeat(fanout)
        ints[1] = slots[drivers:]
        ints[2] = np.array(fanout, dtype=np.int64).repeat(fanout)
        return ints, floats, bools

    def _dense(self, which: int) -> np.ndarray:
        """Slot column *which* over every slot, in slot order: the glue's
        column itself without blocks (writes land in it), else a copy
        assembled from the glue's and the blocks' — what the per-slot
        loops of :meth:`repropagate` and :meth:`_adjacency` index."""
        glue = self._glue_column(which)
        if not self.block_order:
            return glue
        out = np.empty(self.n_slots, dtype=glue.dtype)
        out[self.g_slot] = glue
        for block, first in zip(self.block_order, self.block_firsts):
            out[first:first + block.n_cells] = self.block_cols[block][which]
        return out

    def _put_arrivals(self, slots: list[int], values: np.ndarray) -> None:
        """Store the arrivals *values* of (combinational) *slots* where
        the slot columns hold them, after :meth:`repropagate` worked on
        a :meth:`_dense` copy."""
        for slot, value in zip(slots, values.tolist()):
            block, k = self._holder(slot)
            if block is None:
                self.g_time[_ARRIVAL - 1, k] = value
            else:
                self.block_cols[block][_ARRIVAL][k] = value

    def _ends(self, names: list) -> tuple[np.ndarray, ...]:
        """Slot (``-1`` where the design has no such cell), ``seq``,
        setup and logic delay of each cell name: a glue cell's from the
        glue's columns, a block cell's — its name resolved by the design
        — from the block's (:meth:`_end`, which also takes a split's
        handful of names one by one)."""
        if 0 < len(names) <= 8:
            slots, seq, setup, logic = zip(*map(self._end, names))
            return (np.array(slots, dtype=np.int64), np.array(seq, dtype=bool),
                    np.array(setup, dtype=np.float64), np.array(logic, dtype=np.float64))
        at = np.fromiter(map(self.cell_index.get, names, repeat(-1)), np.int64, len(names))
        glue = at >= 0
        if glue.all():                           # (every name a glue cell's: a flat design)
            return (self.g_slot[at], self.g_seq[at], self.g_time[_SETUP - 1, at],
                    self.g_time[_LOGIC - 1, at])
        k = at[glue]
        slots = np.full(len(names), -1, dtype=np.int64)
        slots[glue] = self.g_slot[k]
        seq = np.zeros(len(names), dtype=bool)
        seq[glue] = self.g_seq[k]
        setup, logic = np.zeros((2, len(names)))
        setup[glue] = self.g_time[_SETUP - 1][k]
        logic[glue] = self.g_time[_LOGIC - 1][k]
        if self.block_slot:
            for i in (~glue).nonzero()[0].tolist():
                slots[i], seq[i], setup[i], logic[i] = self._end(names[i])
        return slots, seq, setup, logic

    def _end(self, name: str) -> tuple:
        """:meth:`_ends` of one name."""
        k = self.cell_index.get(name)
        if k is not None:
            return (self.g_slot[k], self.g_seq[k], self.g_time[_SETUP - 1, k],
                    self.g_time[_LOGIC - 1, k])
        found = self.design.block_row(name, 0) if self.block_slot else None
        if found is None or found[0] not in self.block_slot:
            return -1, False, 0.0, 0.0
        block, row = found
        seq, logic, setup, _arrival = self.block_cols[block]
        return self.block_slot[block] + row, seq[row], setup[row], logic[row]

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
        fresh_rows = self._new_rows(drivers, flat, fanout)
        src, dst = fresh_rows[0][:2]
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
        gone_entries = (~carried).nonzero()[0].tolist()
        if all(k == 0 for _, _, k in pieces) and all(
                type(self.data_nets[j]) is not Block for j in gone_entries):
            return self._retire_and_append(
                [j for j in gone_entries if type(self.data_nets[j]) is not _Retired],
                fresh, nets, drivers, fanout, flat, fresh_rows, made, counts, stale, routes)

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
        self._mark_rows_dirty(gone)
        old_chunks = {}
        for j, chunk in zip(self.b_entry, self.chunks):
            old_chunks[chunk.block] = chunk
            if not carried[j]:
                self._mark_sinks_dirty(chunk)
        n_rows = new_at[BY_GLUE_ROW][-1]
        retime = joined(stale, np.ones(n_rows, dtype=bool), BY_GLUE_ROW)
        ints, floats, bools = self._rows
        n = self.n_rows
        ints, floats, bools = (
            np.concatenate([p.T for p in splice(old.T, new.T, BY_GLUE_ROW)], axis=1)
            for old, new in zip((ints[:3, :n], floats[:, :n], bools[:, :n]),
                                (fresh_rows[0][:3], *fresh_rows[1:])))
        self._rows = (np.concatenate((ints, np.empty_like(ints[:2]))), floats, bools)
        self.n_rows = ints.shape[1]
        self._row_views()
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
            self.g_entry = is_glue.nonzero()[0]
            self.g_nets = [data[j] for j in self.g_entry.tolist()]
            glue_width = width[self.g_entry]
            self.r_net[:] = np.repeat(self.g_entry, glue_width)
            # each glue row's place in row order: its net's first row, plus
            # how far into the net it is
            into = np.arange(len(self.r_net)) - np.repeat(
                np.cumsum(glue_width) - glue_width, glue_width)
            self.g_row[:] = self.net_off[self.r_net] + into
            self.b_entry = (~is_glue).nonzero()[0].tolist()
            self.b_live = [data[j].n_nets for j in self.b_entry]
            self.chunks = [made[data[j]] if data[j] in made else old_chunks[data[j]]
                           for j in self.b_entry]
            self._bests = None
        else:
            self.g_entry, self.g_nets = np.arange(len(data)), list(data)
            self.r_net[:] = np.repeat(np.arange(len(data)), width)
            self.g_row[:] = np.arange(len(self.r_net))
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
        flat: list, fresh_rows: tuple, made: dict, counts: list, stale: np.ndarray,
        routes: list,
    ) -> tuple[np.ndarray, list[_Chunk]]:
        """:meth:`_assemble` where no compiled entry moves: the glue nets
        *gone* (entries) retire — their sinks lose an input, their rows
        keep their place with no ends — and the *fresh* entries, compiled
        by the caller, go after every compiled one.  Costs what was taken
        out and added, not the rows carried."""
        self.r_route = routes
        ints, floats, bools = self._rows
        for j in gone:                           # a glue net's rows are a run
            a, b = self.r_net.searchsorted((j, j + 1)).tolist()
            q = int(self.g_entry.searchsorted(j))
            self._mark_rows_dirty(slice(a, b))
            ints[:2, a:b] = -1                   # src, dst
            floats[1, a:b] = -np.inf             # total
            bools[:2, a:b] = False               # routed, redo
            stale[a:b] = False
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
        self.net_off = _then(self.net_off, self.net_off[-1] + np.array(counts).cumsum())
        entries = np.arange(n_old, n_old + len(fresh))
        if made:
            is_glue = np.fromiter((type(e) is not Block for e in fresh), bool, len(fresh))
            self.b_entry += entries[~is_glue].tolist()
            self.b_live += [e.n_nets for e in fresh if type(e) is Block]
            self.chunks += [made[e] for e in fresh if type(e) is Block]
            self._bests = None
            entries = entries[is_glue]
        self.g_entry = _then(self.g_entry, entries)
        self.g_nets += nets
        self.net_driver += drivers
        self.g_fanout += fanout
        self.r_sink += flat
        self.r_route += _flat_routes(nets, fanout)
        r_net = entries.repeat(fanout)
        width = np.array(fanout, dtype=np.int64)
        into = np.arange(len(r_net)) - (width.cumsum() - width).repeat(width)
        n_rows = len(r_net)
        n0, n = self.n_rows, self.n_rows + n_rows
        if not n0:                               # the first compile: the fresh rows
            self._rows = fresh_rows              # themselves, room comes with an append
        elif n > self._rows[0].shape[1]:
            room = max(n + _SLOT_ROOM, 2 * n0)
            self._rows = tuple(np.concatenate((packed[:, :n0], np.empty(
                (len(packed), room - n0), dtype=packed.dtype)), axis=1) for packed in self._rows)
        ints, floats, bools = self._rows
        if n0:
            ints[:3, n0:n], floats[:, n0:n], bools[:, n0:n] = (
                fresh_rows[0][:3], fresh_rows[1], fresh_rows[2])
        ints[3:, n0:n] = (r_net, self.net_off[r_net] + into)
        self.n_rows = n
        self._row_views()
        src, dst = fresh_rows[0][:2]
        missing = (src < 0) | (dst < 0)
        if missing.any():
            self.net_missing.update(r_net[missing].tolist())
        self._adj = None
        return _then(stale, np.ones(n_rows, dtype=bool)), list(made.values())

    def _row_views(self) -> None:
        """Name the glue-row columns: views of the packed arrays' fronts."""
        n = self.n_rows
        ints, floats, bools = self._rows
        self.r_src, self.r_dst, self.r_fanout, self.r_net, self.g_row = ints[:, :n]
        self.r_delay, self.r_total, self.r_setup, self.r_launch = floats[:, :n]
        self.r_routed, self.r_redo, self.r_capture, self.r_launch_reg = bools[:, :n]

    def _time(self, stale: np.ndarray) -> None:
        """(Re)compute the delay of the glue rows marked in *stale*: the
        routed ones from a single batched path measurement, the rest from
        the placement estimate.  (A chunk's delays come with it.)"""
        rows = stale.nonzero()[0]
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
        if self._net_delay_overridden:
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
            k = self.glue_pos.get(slot)
            if k is not None:
                return None, k
            b = bisect_right(self.block_firsts, slot) - 1
            return self.block_order[b], slot - self.block_firsts[b]
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

    def _mark_rows_dirty(self, rows) -> None:
        """Queue the combinational sinks of glue *rows* (an index array,
        a mask or a slice) for repropagation."""
        dst = self.r_dst[rows]
        self.pending_dirty.update(dst[(dst >= 0) & ~self.r_capture[rows]].tolist())

    def _mark_sinks_dirty(self, chunk: _Chunk) -> None:
        """Queue the combinational sinks of *chunk*'s rows (of which
        there is none where every cell is sequential)."""
        block = chunk.block
        if block.seq_rows() is not None:
            dst = chunk.rows.dst
            self.pending_dirty.update(
                (dst[~self.block_cols[block][_SEQ][dst]] + self.block_slot[block]).tolist())

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
                self._bests = None

    def _adjacency(self) -> tuple:
        """CSR fan-in (by ``(dst, row)``) and fan-out over the live rows."""
        if self._adj is None:
            src = self._in_row_order(self.r_src, lambda c, base: c.rows.src + base)
            dst = self._in_row_order(self.r_dst, lambda c, base: c.rows.dst + base)
            live = ((src >= 0) & (dst >= 0)).nonzero()[0]
            slots = np.arange(self.n_slots + 1)
            by_dst = live[np.argsort(dst[live], kind="stable")]
            by_src = live[np.argsort(src[live], kind="stable")]
            self._adj = (
                by_dst.tolist(), np.searchsorted(dst[by_dst], slots).tolist(),
                by_src.tolist(), np.searchsorted(src[by_src], slots).tolist(),
                src.tolist(), dst.tolist(), self._dense(_SEQ).tolist(),
            )
        return self._adj

    def repropagate(self) -> int:
        """Recompute arrivals through the dirty cone; return cells visited."""
        src, dst = self.r_src, self.r_dst
        # (a row with an absent end belongs to a net of net_missing)
        orphan = ((src < 0) & (dst >= 0)).nonzero()[0] if self.net_missing else ()
        if len(orphan):
            # Mirror the reference for unknown drivers: the estimate path
            # KeyErrors on the driver lookup, and a combinational sink
            # KeyErrors at the comb-edge build — but a *routed* edge into
            # a sequential sink is silently excluded from the endpoint
            # scan.  Raised here, not in sync, so pure topology queries
            # (combinational_loops) still work.
            bad = orphan[~(self.r_routed[orphan] & self.r_capture[orphan])]
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
        out = self._dense(_ARRIVAL)              # (written back below, with blocks)
        written: list[int] = []
        best = self.best_pred
        logic = self._dense(_LOGIC)
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
                    written.append(c)
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
        if self.block_order and written:
            self._put_arrivals(written, out[written])
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
                seq, _logic, setup, arrival = self.block_cols[block]
                chunk.best = _rows_best(chunk.rows, chunk.delay, arrival, setup, seq)
        return chunk.best

    def report(self) -> TimingReport:
        """Endpoint scan + path reconstruction, reference iteration order."""
        name = self._cell_name
        src, dst = self.r_src, self.r_dst
        # Totals are kept per row and recomputed only where a term moved
        # since the last report (a re-timed or fresh row, a new arrival
        # at its driver): the scan below is over stored floats — the glue
        # rows', and one best row per chunk.
        redo = self.r_redo.nonzero()[0]
        if redo.size:
            live = redo[(src[redo] >= 0) & (dst[redo] >= 0)]
            ends = live[self.r_capture[live]]    # rows landing on a register
            launch = self.r_launch[ends]
            moves = ~self.r_launch_reg[ends]     # (a combinational driver's arrival moves)
            if moves.any():
                launch[moves] = self._arrivals(src[ends[moves]])
            self.r_total[ends] = launch + self.r_delay[ends] + self.r_setup[ends]
            self.r_redo.fill(False)
        total = self.r_total
        overhead, insertion = clock_terms(self.design, self.delays)
        chunk_worst, chunk_candidates, chunk_paths = self._chunks_best()
        worst = max(float(total.max()) if total.size else -np.inf, chunk_worst)
        if not worst > 0.0:
            worst = float(self._dense(_ARRIVAL).max()) if self.n_slots else 0.0
            return TimingReport(self.design.name, worst, overhead, [], 0, insertion)
        # First max wins, scanning sinks in cell order and each sink's
        # fan-in in row order: of the rows tied at the maximum, take the
        # first one of the earliest sink — among the glue rows (ascending
        # already) and each chunk's own such row.
        candidates = list(chunk_candidates) if chunk_worst == worst else []
        tied = (total == worst).nonzero()[0]
        if tied.size:
            k = int(tied[np.argmin(dst[tied])])
            candidates.append((int(dst[k]), int(self.g_row[k]), int(src[k])))
        sink, row, cursor = min(candidates)
        path: list[tuple[str, str | None]] = [(name(sink), self._net_name(row))]
        guard = 0
        while cursor >= 0 and guard < self.n_slots + 1:
            pred = self.best_pred.get(cursor)
            path.append((name(cursor), pred[1] if pred else None))
            cursor = pred[0] if pred else -1
            guard += 1
        path.reverse()
        n_paths = int(np.count_nonzero(total > -np.inf)) + chunk_paths
        return TimingReport(self.design.name, worst, overhead, path, n_paths, insertion)

    def _chunks_best(self) -> tuple:
        """``(worst total, its (sink slot, row, driver slot) per chunk
        reaching it, rows landing on a register)`` over every chunk —
        made again only after a chunk came, went or had an arrival move."""
        if self._bests is None:
            bests = [(self._chunk_best(chunk), first, self.block_slot[chunk.block])
                     for first, chunk in zip(self.net_off[self.b_entry].tolist(), self.chunks)]
            worst = max((best[0] for best, _, _ in bests), default=-np.inf)
            self._bests = (worst, [(base + best[1], first + best[2], base + best[3])
                                   for best, first, base in bests if best[0] == worst],
                           sum(best[4] for best, _, _ in bests))
        return self._bests
