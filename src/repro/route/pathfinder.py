"""PathFinder negotiated-congestion routing.

Classic iterative rip-up-and-reroute: every source->sink connection is
routed by A* under per-node costs that combine present congestion (grows
each iteration) with accumulated history cost; iteration stops when no
routing node is used beyond its wire capacity.

Locked routes (pre-implemented component internals) are charged into the
occupancy map but never ripped up — the final "Vivado" pass of the
pre-implemented flow "will only consider non-routed nets" (paper
Sec. IV-A2), which is exactly what this router does when handed a
stitched design.

There are two implementations of the one schedule, and
:meth:`Router.route` picks between them by whether the compiled core
loads — nothing else selects:

* :func:`repro.route.native.route_native` — the whole negotiation in C
  (``_route_core.c``), what every supported host runs;
* :meth:`Router.route_reference` — the scalar Python schedule below: the
  oracle the core is asserted bit-identical to
  (``tests/test_property_route.py``) and the fallback where the core
  cannot load (no compiler and no cached build, or ``REPRO_NATIVE=0``).
  Same routes, same :class:`RouteResult`, ≈7x slower at VGG scale
  (27 k connections: 0.11 s vs 0.75 s; :mod:`repro._native` warns once
  when the fallback was not asked for).

Reference layout: the per-iteration cost vector is materialized once as
a flat Python list (what :func:`~repro.route.maze.astar_route` wants),
all per-path occupancy/cost updates go through NumPy fancy indexing
against cached path arrays on each :class:`_Target`, and the overuse
check that drives rip-up decisions is a single vectorized comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from operator import is_not
from typing import NamedTuple

import numpy as np

from ..obs.span import incr, observe, sample, span
from ..fabric.device import Device
from ..fabric.interconnect import RoutingGraph
from ..netlist.design import Design, DesignError
from .maze import astar_route, direct_path

__all__ = ["Router", "RouteResult", "RoutingError", "block_charge", "routed_occupancy"]

#: Present-congestion factor of the first negotiation iteration, and the
#: factor it grows by each iteration after.
PRES_FAC_INIT = 0.6
PRES_FAC_MULT = 1.9
#: Weight of the accumulated history cost.
HIST_FAC = 0.35
#: Negotiation iterations before the router gives up on overuse.
MAX_ITERS = 12
#: Weighted-A* factor used on reroute passes (bounded suboptimality).
_REROUTE_WEIGHT = 1.15

_EMPTY = np.empty(0, dtype=np.intp)


class RoutingError(DesignError):
    """Raised when the router cannot complete legally."""


@dataclass
class RouteResult:
    """Summary of a routing run."""

    routed: int
    failed: int
    iterations: int
    wirelength: int
    overused_nodes: int
    preexisting: int = 0

    @property
    def success(self) -> bool:
        return self.failed == 0 and self.overused_nodes == 0

    def __repr__(self) -> str:
        status = "ok" if self.success else f"FAILED({self.failed} unrouted, {self.overused_nodes} overused)"
        return (
            f"<RouteResult {status}: {self.routed} connections, "
            f"wl={self.wirelength}, {self.iterations} iters>"
        )


@dataclass
class _Target:
    net_name: str
    sink_index: int
    src_node: int
    dst_node: int
    width: int
    path: list[int] | None = None
    #: Interior nodes (``path[1:-1]``) as list + index array; endpoint
    #: tiles are cell pins, not wires, and never enter the occupancy map.
    inner: list[int] = field(default_factory=list)
    inner_arr: np.ndarray = field(default_factory=lambda: _EMPTY)
    path_arr: np.ndarray = field(default_factory=lambda: _EMPTY)

    def set_path(self, path: list[int]) -> None:
        self.path = path
        self.inner = path[1:-1]
        self.path_arr = np.asarray(path, dtype=np.intp)
        self.inner_arr = self.path_arr[1:-1]

    def clear_path(self) -> None:
        self.path = None
        self.inner = []
        self.path_arr = _EMPTY
        self.inner_arr = _EMPTY


def _path_overused(inner: np.ndarray, occupancy: np.ndarray, capacity: np.ndarray) -> bool:
    """True if any *wire* node of a committed path is over capacity.

    *inner* holds the path's interior nodes (``path[1:-1]``): endpoint
    tiles are cell pins, not routing wires — occupancy is never charged
    for them — so an overused tile under an endpoint must not rip up an
    otherwise clean route.
    """
    if inner.size == 0:
        return False
    return bool((occupancy[inner] > capacity[inner]).any())


def _data_nets(design: Design) -> tuple[list, list]:
    """The nets a router charges and may route — those that exist as
    objects, minus clock and driverless ones — and :func:`_routes_of`
    them."""
    nets = [n for n in design.loose_nets() if not n.is_clock and n.driver is not None]
    return nets, _routes_of(nets)


def _routes_of(nets: list) -> list:
    """Each net's routes, cut to its sinks."""
    return [
        net.routes if len(net.routes) == len(net.sinks) else net.routes[: len(net.sinks)]
        for net in nets
    ]


def _changed(held: "_Held", nets: list, per_net: list, widths: list) -> tuple:
    """``((routes, widths) gone, (routes, widths) come)``: the nets of
    *held* whose charge is no longer on the design — removed, or edited
    since (routes, sink count or width) — with the routes and widths
    they were charged with, and the design's nets (*nets* with their
    *per_net* routes and *widths*) whose charge is not in *held*'s
    occupancy."""
    if nets == held.nets and widths == held.widths \
            and list(chain.from_iterable(per_net)) == held.routes:
        return ([], []), ([], [])
    at = {net: i for i, net in enumerate(held.nets)}   # nets hash by identity
    ends = list(accumulate(held.counts))
    kept = set()
    came: tuple[list, list] = ([], [])
    for net, routes, width in zip(nets, per_net, widths):
        i = at.get(net)
        if i is not None and width == held.widths[i] \
                and routes == held.routes[ends[i] - held.counts[i]:ends[i]]:
            kept.add(i)
        else:
            came[0].append(routes)
            came[1].append(width)
    gone: tuple[list, list] = ([], [])
    for i in range(len(held.nets)):
        if i not in kept:
            gone[0].append(held.routes[ends[i] - held.counts[i]:ends[i]])
            gone[1].append(held.widths[i])
    return gone, came


def _entries(per_net: list) -> tuple[list, np.ndarray, np.ndarray]:
    """Every route entry of *per_net*, flattened, with the net each
    belongs to and whether it is routed."""
    routes = list(chain.from_iterable(per_net))
    owner = np.repeat(
        np.arange(len(per_net)), np.fromiter(map(len, per_net), np.int64, len(per_net))
    )
    return routes, owner, np.fromiter(map(is_not, routes, repeat(None)), bool, len(routes))


def _wire_charges(per_net: list, widths, n_nodes: int) -> tuple:
    """``(node, weight, owner, routed)`` of nets given by their routes
    (*per_net*) and *widths*: the charges their routed paths put on the
    routing graph — one per ``(net, interior node)``, of the net's width,
    since branches of one net share trunk wires and endpoint tiles are
    cell pins — and, per route entry, its net and whether it is routed.
    The charges are integers, so any order of adding them gives the same
    float sums."""
    routes, owner, routed = _entries(per_net)
    if not routed.any():                            # nothing routed: no charge
        return _EMPTY, np.zeros(0), owner, routed
    paths = list(compress(routes, routed.tolist()))
    lens = np.fromiter(map(len, paths), np.int64, len(paths))
    ends = np.cumsum(lens)
    flat = np.fromiter(chain.from_iterable(paths), np.int64, int(lens.sum()))
    interior = np.ones(flat.size, dtype=bool)
    nonempty = lens > 0
    interior[(ends - lens)[nonempty]] = False
    interior[ends[nonempty] - 1] = False
    node = flat[interior]
    if node.size and not 0 <= node.min() <= node.max() < n_nodes:
        raise IndexError("routed_occupancy: route leaves the routing graph")
    pairs = _distinct(np.sort(np.repeat(owner[routed], lens)[interior] * n_nodes + node))
    weight = np.asarray(widths, dtype=np.float64).reshape(-1)[pairs // n_nodes]
    return pairs % n_nodes, weight, owner, routed


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array (``np.unique`` without
    its sort)."""
    first = np.empty(len(ascending), dtype=bool)
    first[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    return ascending[first]


def _net_usage(nets: list, per_net: list, owner: np.ndarray, routed: np.ndarray) -> dict:
    """Per-net node-use counts of the nets that still have an unrouted
    sink — the only ones a router ever rips up or extends."""
    net_usage: dict[str, dict[int, int]] = {}
    for k in _distinct(owner[~routed]).tolist():                # owner ascends
        usage = net_usage[nets[k].name] = {}
        for path in per_net[k]:
            # endpoint tiles are cell pins, not routing wires
            for node in (path or ())[1:-1]:
                usage[node] = usage.get(node, 0) + 1
    return net_usage


def routed_occupancy(
    design: Design, graph: RoutingGraph,
) -> tuple[np.ndarray, dict[str, dict[int, int]], int]:
    """Occupancy charged by a design's committed routes.

    Returns ``(occupancy, net_usage, preexisting)``: the per-node float
    occupancy array, per-net node-use counts, and how many connections
    were already routed.  Branches of one net share trunk wires, so a
    node is charged ``net.width`` once per net however many of the
    net's sink paths cross it; endpoint tiles (``path[0]`` and
    ``path[-1]``) are cell pins, not wires, and are never charged.

    ``net_usage`` covers the nets that still have an unrouted sink —
    the only ones a router ever rips up or extends, a handful on a
    stitched design whose components arrive routed (and none of them
    inside a placed block, whose connections are all routed).  The
    charges are computed from every route at once: interior nodes
    flattened, ``(net, node)`` pairs deduplicated, widths added per node
    (:func:`_wire_charges`); the placed blocks add :func:`block_charge`.

    This is the :class:`Router` setup accounting, factored out so DRC
    rule ``RTE-002`` measures overuse with exactly the router's
    arithmetic.
    """
    nets, per_net = _data_nets(design)
    occupancy = np.zeros(graph.n_nodes)
    node, weight, owner, routed = _wire_charges(
        per_net, [net.width for net in nets], graph.n_nodes)
    np.add.at(occupancy, node, weight)
    preexisting = int(routed.sum())
    if design.blocks:
        preexisting += block_charge(design, occupancy, graph.device.nrows)
    return occupancy, _net_usage(nets, per_net, owner, routed), preexisting


def block_charge(design: Design, occupancy: np.ndarray, nrows: int) -> int:
    """Add the placed blocks' wire charges to *occupancy* (of a grid
    *nrows* high); returns their routed connections.

    Placed blocks arrive routed: each adds its per-node charges, summed
    over its nets once per image as a box over the columns and rows the
    wires span, at its anchor — a few contiguous runs per column, not a
    scatter of every node.  The charges are integers, so the float sums
    are exact in any order.
    """
    grid = occupancy.reshape(-1, nrows)           # [col, row]: node col * nrows + row
    preexisting = 0
    for block in design.blocks:
        col, row, charge, n_routed = block.wire_use()
        width, height = charge.shape
        if charge.size and not (0 <= col and col + width <= grid.shape[0]
                                and 0 <= row and row + height <= nrows):
            raise IndexError("routed_occupancy: route leaves the routing graph")
        grid[col:col + width, row:row + height] += charge
        preexisting += n_routed
    return preexisting


class _Held(NamedTuple):
    """What a :class:`Router` keeps of a block-backed design between its
    passes: the blocks it charged (each with its net count), the
    occupancy as the pass left it, how many of its nodes are overused,
    the blocks' routed connections, and the nets charged with their
    routes (flattened, with each net's count) and widths."""

    key: list
    occupancy: np.ndarray
    overused: int
    block_routed: int
    nets: list
    routes: list
    counts: list
    widths: list


class Router:
    """Negotiated-congestion router over a device's routing graph.

    :meth:`route` runs the compiled negotiation core
    (:mod:`repro.route.native`) when it loads and :meth:`route_reference`
    — the scalar Python schedule, the core's oracle — when it does not;
    both write the same routes and return the same :class:`RouteResult`.

    The graph defaults to the device's one (:attr:`Device.routing_graph`),
    whose pooled work arrays each pass borrows.  On a design with placed
    blocks a router keeps the occupancy its last pass left: a later pass
    over the same blocks starts from it and re-charges only the glue nets
    that changed since — the pipeliner's split nets, say — instead of
    every block's wires.
    """

    def __init__(self, device: Device, graph: RoutingGraph | None = None) -> None:
        self.device = device
        self.graph = graph if graph is not None else device.routing_graph
        self._held: _Held | None = None
        self._pass: tuple | None = None   # this pass's (key, occupancy, block routed, nets)
        self._occupancy: np.ndarray | None = None    # lent by the graph

    def occupancy(self, design: Design) -> tuple[np.ndarray, dict[str, dict[int, int]], int, int]:
        """:func:`routed_occupancy` of *design*, plus how many nodes it
        overuses.  Where the router's last pass was over the same placed
        blocks, none of which has lost a net since, that pass's
        occupancy is carried over: the glue nets it charged that are gone
        or changed are taken off, and those new or changed are put on."""
        graph = self.graph
        n_nodes = graph.n_nodes
        capacity = graph.capacity_f
        nets, per_net = _data_nets(design)
        widths = [net.width for net in nets]
        key = [(block, block.n_nets) for block in design.blocks]
        held, self._held = self._held, None
        if held is not None and held.key == key:
            occupancy, overused, block_routed = held.occupancy, held.overused, held.block_routed
            gone, came = _changed(held, nets, per_net, widths)
            node, weight = [], []
            for (routes, w), sign in ((gone, -1.0), (came, 1.0)):
                n, c, _, _ = _wire_charges(routes, w, n_nodes)
                node.append(n)
                weight.append(sign * c)
            node = np.concatenate(node)
            if node.size:
                touched = np.unique(node)
                overused -= int(np.count_nonzero(occupancy[touched] > capacity[touched]))
                np.add.at(occupancy, node, np.concatenate(weight))
                overused += int(np.count_nonzero(occupancy[touched] > capacity[touched]))
            _, owner, routed = _entries(per_net)
        else:
            occupancy = self._occupancy
            if occupancy is None:
                occupancy = self._occupancy = graph.occupancy_for(self)
            else:
                occupancy.fill(0.0)
            node, weight, owner, routed = _wire_charges(per_net, widths, n_nodes)
            np.add.at(occupancy, node, weight)
            block_routed = block_charge(design, occupancy, graph.device.nrows) if key else 0
            overused = int(np.count_nonzero(occupancy > capacity))
        self._pass = (key, occupancy, block_routed, nets)
        preexisting = int(routed.sum()) + block_routed
        return occupancy, _net_usage(nets, per_net, owner, routed), preexisting, overused

    def _result(self, n_targets, routed, iterations, wirelength, overused, preexisting,
                ) -> RouteResult:
        """A finished pass's :class:`RouteResult`, and its ``route.*``
        totals — recorded here for both implementations, so a trace does
        not depend on which one ran.  On a block-backed design the router
        keeps the occupancy the pass left, for its next pass."""
        key, occupancy, block_routed, nets = self._pass
        self._pass = None
        if key:
            per_net = _routes_of(nets)
            self._held = _Held(key, occupancy, overused, block_routed, nets,
                               list(chain.from_iterable(per_net)),
                               list(map(len, per_net)), [net.width for net in nets])
        incr("route.connections", n_targets)
        incr("route.failed", n_targets - routed)
        incr("route.iterations", iterations)
        observe("route.wirelength", wirelength)
        return RouteResult(
            routed=routed,
            failed=n_targets - routed,
            iterations=iterations,
            wirelength=wirelength,
            overused_nodes=overused,
            preexisting=preexisting,
        )

    # -- public API ------------------------------------------------------

    def route(self, design: Design, *, region=None) -> RouteResult:
        """Route all unrouted, unlocked data connections of *design*.

        Routed paths are written back onto the nets.  With *region* (a
        :class:`~repro.fabric.pblock.PBlock`, defaulting to
        ``design.pblock``), routes are confined to the region — required
        for pre-implemented components to stay relocatable.  Raises
        :class:`RoutingError` if a connection's endpoints are unplaced.
        """
        from .native import native_available, route_native

        if not native_available():
            return self.route_reference(design, region=region)
        return route_native(self, design, self._blocked(design, region))

    def route_reference(self, design: Design, *, region=None) -> RouteResult:
        """:meth:`route` in scalar Python: the oracle of the compiled core,
        and what :meth:`route` runs where the core cannot load."""
        graph = self.graph
        nrows, ncols = self.device.nrows, self.device.ncols
        blocked = self._blocked(design, region)

        with span("route/setup"):
            occupancy, net_usage, preexisting, _ = self.occupancy(design)
            targets = []
            for net in design.nets.values():
                if net.is_clock or net.driver is None or net.locked:
                    continue
                driver = design.cells[net.driver]
                for i, sink_name in enumerate(net.sinks):
                    if net.routes[i] is not None:
                        continue
                    sink = design.cells[sink_name]
                    if not driver.is_placed or not sink.is_placed:
                        raise RoutingError(
                            f"net {net.name}: cannot route with unplaced endpoints"
                        )
                    targets.append(
                        _Target(
                            net_name=net.name,
                            sink_index=i,
                            src_node=graph.node_id(*driver.placement),
                            dst_node=graph.node_id(*sink.placement),
                            width=net.width,
                        )
                    )
            # Short connections first: they establish uncontested
            # fabric use.
            targets.sort(
                key=lambda t: abs(t.src_node // nrows - t.dst_node // nrows)
                + abs(t.src_node % nrows - t.dst_node % nrows)
            )

        capacity = graph.capacity_f
        history = np.zeros(graph.n_nodes, dtype=np.float64)
        pres_fac = PRES_FAC_INIT
        iterations = 0

        for iteration in range(MAX_ITERS):
            iterations = iteration + 1
            with span("route/iterate"):
                over = np.maximum(occupancy - capacity, 0.0) / capacity
                node_cost = 1.0 + pres_fac * over + HIST_FAC * history
                if blocked is not None:
                    node_cost[blocked] = 1e12
                # One flat-list materialization per iteration keeps the
                # A* loop in native floats (bit-identical values).
                cost_list = node_cost.tolist()
                ripped = self._iterate(
                    targets, net_usage, iteration, occupancy,
                    capacity, history, cost_list, pres_fac,
                    nrows, ncols,
                )

            n_over = int(np.count_nonzero(occupancy > capacity))
            incr("route.ripup", ripped)
            sample("route.overuse", n_over, iteration=iterations)
            if n_over == 0:
                break
            history += np.maximum(occupancy - capacity, 0.0) / capacity
            pres_fac *= PRES_FAC_MULT

        with span("route/commit"):
            paths = []
            for tgt in targets:
                if tgt.path is None:
                    continue
                design.nets[tgt.net_name].routes[tgt.sink_index] = tgt.path
                paths.append(tgt.path)
            wirelength = int(self.graph.path_metrics_batch(paths)[0].sum())

        return self._result(
            len(targets), len(paths), iterations, wirelength,
            int(np.count_nonzero(occupancy > capacity)), preexisting,
        )

    def _blocked(self, design: Design, region) -> np.ndarray | None:
        """Mask of the nodes outside *region* (default ``design.pblock``);
        ``None`` when the whole fabric is open."""
        if region is None:
            region = design.pblock
        if region is None:
            return None
        cols, rows = np.divmod(np.arange(self.graph.n_nodes), self.device.nrows)
        inside_cols = (cols >= region.col0) & (cols <= region.col1)
        return ~(inside_cols & (rows >= region.row0) & (rows <= region.row1))

    # -- one negotiation iteration ---------------------------------------

    def _iterate(
        self, targets, net_usage, iteration, occupancy, capacity, history,
        cost_list, pres_fac, nrows, ncols,
    ) -> int:
        """Route every target of one negotiation iteration; returns how
        many committed paths it ripped up."""
        ripped = 0
        for tgt in targets:
            usage = net_usage[tgt.net_name]
            if tgt.path is not None:
                if iteration and not _path_overused(tgt.inner_arr, occupancy, capacity):
                    continue  # keep clean paths; reroute congested ones
                ripped += 1
                self._rip(tgt, usage, occupancy, capacity, history,
                          cost_list, pres_fac)
            if iteration == 0:
                # quick pass: congestion-oblivious direct route
                path = direct_path(tgt.src_node, tgt.dst_node, nrows)
            else:
                path = astar_route(
                    tgt.src_node, tgt.dst_node, nrows, ncols, cost_list,
                    heuristic_weight=_REROUTE_WEIGHT,
                )
                if path is None:
                    # keep connectivity: fall back to the direct route and
                    # let negotiation continue elsewhere
                    path = direct_path(tgt.src_node, tgt.dst_node, nrows)
            self._commit(tgt, path, usage, occupancy, capacity, history,
                         cost_list, pres_fac)
        return ripped

    # -- per-path state updates ------------------------------------------

    def _rip(self, tgt, usage, occupancy, capacity, history, cost_list, pres_fac) -> None:
        """Remove a target's path from the shared-trunk usage counts and
        the occupancy map, then refresh costs along the freed path."""
        freed = []
        for node in tgt.inner:
            left = usage[node] - 1
            if left:
                usage[node] = left
            else:
                del usage[node]
                freed.append(node)
        if freed:
            occupancy[freed] -= tgt.width
        self._refresh_cost(tgt.path_arr, tgt.path, occupancy, capacity, history, cost_list, pres_fac)
        tgt.clear_path()

    def _commit(self, tgt, path, usage, occupancy, capacity, history, cost_list, pres_fac) -> None:
        """Install a fresh path: charge occupancy for interior nodes the
        net doesn't already use, then refresh costs along the path."""
        tgt.set_path(path)
        if usage:
            added = []
            for node in tgt.inner:
                count = usage.get(node, 0)
                usage[node] = count + 1
                if count == 0:
                    added.append(node)
            if added:
                occupancy[added] += tgt.width
        elif tgt.inner:
            # Fast path: nothing of this net is routed yet, every interior
            # node is newly charged — one fancy-indexed update.
            for node in tgt.inner:
                usage[node] = 1
            occupancy[tgt.inner_arr] += tgt.width
        self._refresh_cost(tgt.path_arr, path, occupancy, capacity, history, cost_list, pres_fac)

    def _refresh_cost(self, path_arr, path, occupancy, capacity, history, cost_list, pres_fac) -> None:
        """Recompute node costs along one path (vectorized) and write them
        back into the iteration's flat cost list, so subsequent searches
        this iteration see current congestion."""
        over_p = np.maximum(occupancy[path_arr] - capacity[path_arr], 0.0) / capacity[path_arr]
        vals = (1.0 + pres_fac * over_p + HIST_FAC * history[path_arr]).tolist()
        for node, val in zip(path, vals):
            cost_list[node] = val
