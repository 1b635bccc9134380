"""Routing-resource graph over the device tile grid.

Every fabric tile carries an interconnect (INT) tile.  The routing graph
has one node per tile, with a wire capacity per node (how many distinct
nets may use that INT tile).  Edges model two wire classes:

* **single** wires to the four adjacent tiles (cost 1 tile each);
* **hex** wires jumping six tiles horizontally or vertically — longer
  reach at lower per-tile cost, like UltraScale long lines.

I/O columns have reduced capacity, making them both a congestion
bottleneck and (via the timing model) a delay penalty — the "fabric
discontinuities" the paper blames for VGG's stitched-QoR loss.

A device has one graph (:attr:`Device.routing_graph`), which the flows,
``preimplement`` and the DRC engine share, and it owns the router's
node-sized arrays: the float capacity every pass reads; a pool of
:class:`RouteBuffers` — negotiation history, the iteration's cost
tables, the A* arena — of which a routing pass checks one set out
(:meth:`RoutingGraph.buffers`) and gives it back when it ends, reset
where it wrote; and a pool of occupancy arrays, of which a router
holds one (:meth:`RoutingGraph.occupancy_for`) from its first pass
until it is collected.  Each is lent to one pass or one router at a
time, so threads routing on one device (serve's workers, each with its
own router) never share one, and a pool grows to as many as were ever
in use at once.  Untouched entries stay unfaulted pages: a pass that
runs no A* search makes none of the cost or arena pages resident, and
one that does hands them back when it ends (:meth:`RouteBuffers.release`),
so the pool holds no more memory between passes than a pass touched.
"""

from __future__ import annotations

import mmap
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .device import Device, TileType

__all__ = ["RouteBuffers", "RoutingGraph", "SINGLE_COST", "HEX_COST", "HEX_REACH", "node_list", "path_slices"]

#: Reference implementation :meth:`RoutingGraph.path_metrics_batch` is
#: asserted equal to (oracle contract, lint rules ORC-001..003).
ORACLE = "repro.fabric.interconnect.RoutingGraph.path_metrics"

#: Base cost of a single-tile wire hop (arbitrary units; timing converts).
SINGLE_COST = 1.0
#: Base cost of a hex wire (covers HEX_REACH tiles; cheaper per tile).
HEX_COST = 3.0
#: Reach of a hex wire in tiles.
HEX_REACH = 6
#: Nodes per slice of a batched path measurement (:func:`path_slices`):
#: its per-hop temporaries span one slice, not every routed node of a
#: design (207 k in the monolithic VGG-16).
METRICS_CHUNK = 1 << 14


def node_list(nodes: np.ndarray) -> list[int]:
    """``nodes.tolist()``, with one int object per distinct node id.

    A routed netlist repeats each node id in every path through it (the
    monolithic VGG-16: 207 k route entries over 38 k distinct ids), and
    ``tolist`` would allocate an int object per entry.  The interning
    covers the ids of this call only, not a table kept per device.
    """
    distinct, index = np.unique(nodes, return_inverse=True)
    return distinct.astype(object)[index].tolist()


def path_slices(lens: np.ndarray):
    """``(a, b)`` runs of consecutive paths, in order, covering paths
    ``0 .. len(lens)``: each spans at most :data:`METRICS_CHUNK` nodes,
    or is one path longer than that."""
    ends = np.cumsum(lens)
    a = 0
    while a < len(lens):
        start = int(ends[a] - lens[a])
        b = max(a + 1, int(np.searchsorted(ends, start + METRICS_CHUNK, side="right")))
        yield a, b
        a = b


#: A private map (where the system has them): pages it gives back read as zeros.
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _unfaulted(n: int, dtype) -> np.ndarray:
    """*n* zeros of an 8-byte *dtype* in anonymous memory of their own,
    where a page becomes resident only when written — from the heap, a
    buffer could be handed pages a freed array left resident.  (The
    array's ``base`` is a view of its map.)"""
    return np.frombuffer(mmap.mmap(-1, n * 8, **_PRIVATE), dtype=dtype)


class RouteBuffers:
    """One routing pass's node-sized work arrays, lent by a graph.

    ``history`` is zero between passes; ``cost`` / ``hex`` (the
    iteration's node costs, and three times them for hex wires) are
    rebuilt whole before a pass reads them; ``g`` / ``parent`` /
    ``stamp`` are the A* arena, whose entries count only when ``stamp``
    holds the search's generation — ``state[0]``, which the next pass
    continues from.  ``state[1]`` is the pass's overuse count.
    """

    __slots__ = ("history", "cost", "hex", "g", "parent", "stamp", "state", "addresses")

    def __init__(self, n_nodes: int) -> None:
        self.history = _unfaulted(n_nodes, np.float64)
        self.cost = _unfaulted(n_nodes, np.float64)
        self.hex = _unfaulted(n_nodes, np.float64)
        self.g = _unfaulted(n_nodes, np.float64)
        self.parent = _unfaulted(n_nodes, np.int64)
        self.stamp = _unfaulted(n_nodes, np.int64)
        self.state = np.zeros(2, dtype=np.int64)
        #: Where the arrays above sit, in that order (they never move).
        self.addresses = tuple(getattr(self, name).ctypes.data for name in self.__slots__[:7])

    def release(self) -> None:
        """Hand the node-sized pages back to the system, after a pass that
        wrote them all (an A* iteration): they read as zeros again, as a
        fresh set's do, and are resident only while a pass uses them."""
        if hasattr(mmap, "MADV_DONTNEED"):
            for name in self.__slots__[:6]:
                getattr(self, name).base.obj.madvise(mmap.MADV_DONTNEED)


@dataclass
class RoutingGraph:
    """Implicit grid routing graph for a :class:`Device`.

    Node ids are ``col * nrows + row``.  The graph is immutable once
    built: ``capacity`` per node, and the same as floats in
    ``capacity_f`` (what the router compares occupancy with).  Routers
    keep their own occupancy indexed by node id and borrow the rest from
    :meth:`buffers`.
    """

    device: Device
    capacity: np.ndarray = field(init=False)
    capacity_f: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        dev = self.device
        cap_col = np.where(
            dev.col_types == TileType.IO,
            dev.part.io_wires_per_tile,
            dev.part.wires_per_tile,
        ).astype(np.int32)
        # capacity[node] with node = col * nrows + row
        self.capacity = np.repeat(cap_col, dev.nrows)
        self.capacity_f = self.capacity.astype(np.float64)
        self.capacity.flags.writeable = False
        self.capacity_f.flags.writeable = False
        self._free: list[RouteBuffers] = []
        self._free_occupancy: list[np.ndarray] = []

    def occupancy_for(self, owner) -> np.ndarray:
        """A zeroed float occupancy array, lent to *owner* (a router, which
        keeps a design's occupancy between its passes) until *owner* is
        collected.  A reused array's pages are resident already, so a run
        that charges the placed blocks' wires does not fault them in."""
        try:
            occupancy = self._free_occupancy.pop()
            occupancy.fill(0.0)
        except IndexError:
            occupancy = _unfaulted(self.n_nodes, np.float64)
        weakref.finalize(owner, self._free_occupancy.append, occupancy)
        return occupancy

    @contextmanager
    def buffers(self):
        """Lend one :class:`RouteBuffers` for a routing pass; it returns to
        the pool when the pass ends, raised or not."""
        try:
            buf = self._free.pop()
        except IndexError:
            buf = RouteBuffers(self.n_nodes)
        try:
            yield buf
        finally:
            self._free.append(buf)

    # -- node addressing --------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.device.ncols * self.device.nrows

    def node_id(self, col: int, row: int) -> int:
        if not self.device.in_bounds(col, row):
            raise IndexError(f"tile ({col},{row}) outside device")
        return col * self.device.nrows + row

    def node_xy(self, node: int) -> tuple[int, int]:
        nrows = self.device.nrows
        return (node // nrows, node % nrows)

    # -- adjacency -----------------------------------------------------------

    def neighbors(self, node: int):
        """Yield ``(neighbor_node, base_cost, tiles_spanned)`` triples."""
        nrows = self.device.nrows
        ncols = self.device.ncols
        col, row = node // nrows, node % nrows
        # single wires
        if row + 1 < nrows:
            yield node + 1, SINGLE_COST, 1
        if row > 0:
            yield node - 1, SINGLE_COST, 1
        if col + 1 < ncols:
            yield node + nrows, SINGLE_COST, 1
        if col > 0:
            yield node - nrows, SINGLE_COST, 1
        # hex wires
        if row + HEX_REACH < nrows:
            yield node + HEX_REACH, HEX_COST, HEX_REACH
        if row - HEX_REACH >= 0:
            yield node - HEX_REACH, HEX_COST, HEX_REACH
        if col + HEX_REACH < ncols:
            yield node + HEX_REACH * nrows, HEX_COST, HEX_REACH
        if col - HEX_REACH >= 0:
            yield node - HEX_REACH * nrows, HEX_COST, HEX_REACH

    def is_wire_edge(self, a: int, b: int) -> bool:
        """True when a single or hex wire connects nodes *a* and *b*.

        The membership test behind :meth:`neighbors` — DRC uses it to
        check that committed route paths only take hops a real wire
        provides.
        """
        n = self.n_nodes
        if not (0 <= a < n and 0 <= b < n):
            return False
        (ca, ra), (cb, rb) = self.node_xy(a), self.node_xy(b)
        dc, dr = abs(ca - cb), abs(ra - rb)
        if dc == 0:
            return dr in (1, HEX_REACH)
        if dr == 0:
            return dc in (1, HEX_REACH)
        return False

    # -- path metrics ----------------------------------------------------

    def path_metrics(self, path: list[int]) -> tuple[int, int]:
        """``(tiles_spanned, io_crossings)`` for one node path.

        The plain per-hop walk: the reference for
        :meth:`path_metrics_batch`, and what callers with a handful of
        paths use.  Nothing is cached, so the graph never keeps a route
        list alive.
        """
        nrows = self.device.nrows
        io_crossings = self.device.io_crossings
        tiles = 0
        crossings = 0
        pc, pr = path[0] // nrows, path[0] % nrows
        for node in path[1:]:
            c, r = node // nrows, node % nrows
            tiles += abs(c - pc) + abs(r - pr)
            if c != pc:
                crossings += io_crossings(pc, c)
            pc, pr = c, r
        return tiles, crossings

    def path_metrics_batch(self, paths) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`path_metrics` of every path in *paths*, in one pass.

        Returns two int64 arrays ``(tiles, crossings)`` parallel to
        *paths* (a sequence): the paths flattened into node arrays, one
        :func:`path_slices` run at a time, and handed to
        :meth:`path_metrics_csr`.
        """
        n = len(paths)
        lens = np.fromiter(map(len, paths), dtype=np.int64, count=n)
        tiles = np.empty(n, dtype=np.int64)
        crossings = np.empty(n, dtype=np.int64)
        pending = iter(paths)
        for a, b in path_slices(lens):
            part = lens[a:b]
            flat = np.fromiter(chain.from_iterable(islice(pending, b - a)),
                               dtype=np.int64, count=int(part.sum()))
            tiles[a:b], crossings[a:b] = self.path_metrics_csr(flat, np.cumsum(part) - part, part)
        return tiles, crossings

    def path_metrics_csr(
        self, nodes: np.ndarray, starts: np.ndarray, lens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`path_metrics` of the paths ``nodes[s:s + n]`` for each
        ``(s, n)`` of *starts* / *lens* — the form routes already have
        in a columnar design image, where nothing needs flattening.

        Per-hop spans and I/O-column counts (two lookups in
        :attr:`Device.io_prefix`) are prefix-summed over *nodes* and
        differenced at the path boundaries.  Integer arithmetic
        throughout, so the result equals the scalar walk exactly.
        """
        if lens.size and int(lens.min()) < 1:
            raise IndexError("path_metrics_batch: empty path")
        total = len(nodes)
        cols, rows = np.divmod(nodes, self.device.nrows)
        c0, c1 = cols[:-1], cols[1:]
        prefix = self.device.io_prefix
        lo = np.minimum(c0, c1)
        # prefix[hi] - prefix[lo + 1] counts columns strictly between;
        # it is negative only for lo == hi (an I/O column itself).
        crossed = np.maximum(prefix[np.maximum(c0, c1)] - prefix[lo + 1], 0)
        # sums[k] = metrics of hops 0..k-1; a path over nodes [s, e) owns
        # hops s..e-2, so the junction hop e-1 drops out of the difference.
        sums = np.zeros((2, max(total, 1)), dtype=np.int64)
        np.cumsum(np.abs(c1 - c0) + np.abs(np.diff(rows)), out=sums[0, 1:total])
        np.cumsum(crossed, out=sums[1, 1:total])
        per_path = sums[:, starts + lens - 1] - sums[:, starts]
        return per_path[0], per_path[1]

    def lower_bound_cost(self, a: int, b: int) -> float:
        """Admissible A* heuristic: cheapest conceivable cost between nodes."""
        (ca, ra), (cb, rb) = self.node_xy(a), self.node_xy(b)
        dist = abs(ca - cb) + abs(ra - rb)
        # Hex wires give the best cost-per-tile ratio.
        per_tile = HEX_COST / HEX_REACH
        return dist * per_tile
