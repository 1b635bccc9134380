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

Hot-path layout: the per-iteration cost vector is materialized once as a
flat Python list (what :func:`~repro.route.maze.astar_route` wants), all
per-path occupancy/cost updates go through NumPy fancy indexing against
cached path arrays on each :class:`_Target`, and the overuse check that
drives rip-up decisions is a single vectorized comparison.  With
``jobs > 1`` the router additionally batches *window-disjoint* reroutes
into waves and runs each wave's searches concurrently on
:class:`repro.engine.Engine` — provably bit-identical to the serial
schedule (see :meth:`Router._iterate_parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import is_not

import numpy as np

from .._util import StageTimer, make_rng
from ..obs.span import incr, observe, sample
from ..fabric.device import Device
from ..fabric.interconnect import HEX_COST, RoutingGraph
from ..netlist.design import Design, DesignError
from .maze import _window_bounds, astar_route, direct_path
from .soa import (
    batch_usage,
    direct_paths_batch,
    overused_flags,
    refresh_cost_nodes,
)

__all__ = ["Router", "RouteResult", "RoutingError", "routed_occupancy"]

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


def _search_task(
    src: int,
    dst: int,
    nrows: int,
    ncols: int,
    bounds: tuple[int, int, int, int],
    cost_map: dict[int, float],
    heuristic_weight: float,
) -> list[int] | None:
    """One pooled wave search: window bounds and the cost values inside
    them travel with the task, so the worker never needs the full grid."""
    return astar_route(
        src, dst, nrows, ncols, cost_map,
        heuristic_weight=heuristic_weight, _bounds=bounds,
    )


def _node_bbox(path_arr: np.ndarray, nrows: int) -> tuple[int, int, int, int]:
    cols = path_arr // nrows
    rows = path_arr % nrows
    return (int(cols.min()), int(rows.min()), int(cols.max()), int(rows.max()))


def _union_bbox(a: tuple, b: tuple) -> tuple[int, int, int, int]:
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def _hits(box: tuple, boxes: list[tuple]) -> bool:
    c0, r0, c1, r1 = box
    for b0, b1, b2, b3 in boxes:
        if c0 <= b2 and b0 <= c1 and r0 <= b3 and b1 <= r1:
            return True
    return False


def _window_cost_map(
    bounds: tuple[int, int, int, int], nrows: int, cost_list: list[float]
) -> dict[int, float]:
    """Cost values for every node inside *bounds*, keyed by node id."""
    col_lo, row_lo, col_hi, row_hi = bounds
    cmap: dict[int, float] = {}
    for col in range(col_lo, col_hi + 1):
        base = col * nrows
        lo = base + row_lo
        cmap.update(zip(range(lo, base + row_hi + 1), cost_list[lo : base + row_hi + 1]))
    return cmap


def routed_occupancy(
    design: Design, graph: RoutingGraph
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
    stitched design whose components arrive routed.  The array is
    computed from every route at once: interior nodes flattened,
    ``(net, node)`` pairs deduplicated, widths summed per node in net
    order — the order a walk over ``design.nets`` adds them in, so the
    float sums are the same.

    This is the :class:`Router` setup accounting, factored out so DRC
    rule ``RTE-002`` measures overuse with exactly the router's
    arithmetic.
    """
    n_nodes = graph.n_nodes
    nets = [n for n in design.nets.values() if not n.is_clock and n.driver is not None]
    per_net = [
        net.routes if len(net.routes) == len(net.sinks) else net.routes[: len(net.sinks)]
        for net in nets
    ]
    routes = list(chain.from_iterable(per_net))
    owner = np.repeat(
        np.arange(len(nets)), np.fromiter(map(len, per_net), np.int64, len(nets))
    )
    routed = np.fromiter(map(is_not, routes, repeat(None)), bool, len(routes))

    net_usage: dict[str, dict[int, int]] = {}
    for k in np.unique(owner[~routed]).tolist():
        usage = net_usage[nets[k].name] = {}
        for path in per_net[k]:
            # endpoint tiles are cell pins, not routing wires
            for node in (path or ())[1:-1]:
                usage[node] = usage.get(node, 0) + 1

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
    pairs = np.sort(np.repeat(owner[routed], lens)[interior] * n_nodes + node)
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    pairs = pairs[first]  # one charge per (net, node)
    width = np.array([net.width for net in nets])
    occupancy = np.bincount(
        pairs % n_nodes, weights=width[pairs // n_nodes], minlength=n_nodes
    ).astype(np.float64, copy=False)
    return occupancy, net_usage, int(routed.sum())


class Router:
    """Negotiated-congestion router over a device's routing graph.

    *jobs* > 1 routes window-disjoint targets concurrently through
    :class:`repro.engine.Engine` worker processes; results are
    bit-identical to ``jobs=1`` (asserted by
    ``tests/test_hotpath_determinism.py``).

    *soa* enables the structure-of-arrays fast paths
    (:mod:`repro.route.soa`): batched first-iteration routes, block
    prescreening of the rip-up scan, incremental cost refreshes, and
    vectorized wirelength.  ``soa=False`` runs the original scalar code
    — results are bit-identical either way (the property suite asserts
    it), so the flag exists as the equivalence oracle and benchmark
    baseline, not as a tuning knob.  When the compiled negotiation core
    (:mod:`repro.route.native`) is available and ``jobs == 1`` with no
    sharding, the whole soa loop runs in C — still bit-identical.

    *shards* switches to the region-sharded rip-all-first schedule of
    :mod:`repro.route.shard`: ``(gc, gr)`` splits the fabric into a
    ``gc x gr`` shard grid, ``"auto"`` picks a grid for large designs
    (and stays classic below :data:`repro.route.shard.AUTO_MIN_TARGETS`
    targets), ``None`` (default) keeps the classic interleaved
    schedule.  Sharded results differ from classic (a different —
    equally valid — negotiation schedule) but are byte-identical to the
    sharded serial oracle at any *jobs*/*soa* setting.
    """

    def __init__(
        self,
        device: Device,
        graph: RoutingGraph | None = None,
        *,
        pres_fac_init: float = 0.6,
        pres_fac_mult: float = 1.9,
        hist_fac: float = 0.35,
        max_iters: int = 12,
        seed: int = 0,
        jobs: int = 1,
        soa: bool = True,
        shards: tuple[int, int] | str | None = None,
    ) -> None:
        self.device = device
        self.graph = graph if graph is not None else RoutingGraph(device)
        self.pres_fac_init = pres_fac_init
        self.pres_fac_mult = pres_fac_mult
        self.hist_fac = hist_fac
        self.max_iters = max_iters
        self.rng = make_rng(seed)
        self.jobs = max(1, int(jobs))
        self.soa = bool(soa)
        self.shards = shards

    # -- public API ------------------------------------------------------

    def route(
        self,
        design: Design,
        *,
        region=None,
        timer: StageTimer | None = None,
    ) -> RouteResult:
        """Route all unrouted, unlocked data connections of *design*.

        Routed paths are written back onto the nets.  With *region* (a
        :class:`~repro.fabric.pblock.PBlock`, defaulting to
        ``design.pblock``), routes are confined to the region — required
        for pre-implemented components to stay relocatable.  Raises
        :class:`RoutingError` if a connection's endpoints are unplaced.
        """
        timer = timer if timer is not None else StageTimer()
        graph = self.graph
        nrows, ncols = self.device.nrows, self.device.ncols
        if region is None:
            region = design.pblock
        blocked = None
        if region is not None:
            cols = np.arange(graph.n_nodes) // nrows
            rows = np.arange(graph.n_nodes) % nrows
            blocked = ~(
                (cols >= region.col0)
                & (cols <= region.col1)
                & (rows >= region.row0)
                & (rows <= region.row1)
            )

        if self.soa and self.jobs == 1 and self.shards is None:
            from .native import native_available, route_native

            if native_available():
                # Compiled negotiation core: same schedule, same spans,
                # bit-identical results (tests/test_property_route_soa.py
                # and the smoke equivalence assert it).
                return route_native(self, design, blocked, timer)

        with timer.stage("route/setup"):
            occupancy, net_usage, preexisting = routed_occupancy(design, graph)
            if self.soa:
                targets = self._setup_targets_soa(design, nrows, ncols)
            else:
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

        if self.shards is not None:
            from .shard import resolve_grid, route_sharded

            grid = resolve_grid(self.shards, len(targets))
            if grid is not None:
                return route_sharded(
                    self, design, targets, net_usage, occupancy,
                    preexisting, blocked, grid, timer,
                )

        capacity = graph.capacity.astype(np.float64)
        history = np.zeros(graph.n_nodes, dtype=np.float64)
        pres_fac = self.pres_fac_init
        iterations = 0
        failed = 0
        engine = None
        if self.jobs > 1:
            from ..engine import Engine

            engine = Engine(jobs=self.jobs)

        for iteration in range(self.max_iters):
            iterations = iteration + 1
            with timer.stage("route/iterate"):
                if iteration == 0 and self.soa:
                    # Congestion-oblivious direct routes for everything:
                    # no search reads the cost tables during iteration 0
                    # (they are rebuilt from the occupancy/history arrays
                    # at the top of the next iteration), so the whole
                    # pass is batched array work with no cost refreshes.
                    failed, ripped = self._iterate_zero_soa(
                        targets, net_usage, occupancy, nrows
                    )
                    zero_failed = failed
                else:
                    over = np.maximum(occupancy - capacity, 0.0) / capacity
                    node_cost = 1.0 + pres_fac * over + self.hist_fac * history
                    if blocked is not None:
                        node_cost[blocked] = 1e12
                    # One flat-list materialization per iteration keeps the
                    # A* inner loop in native floats (bit-identical values);
                    # the premultiplied hex vector rides along for the same
                    # reason.
                    cost_list = node_cost.tolist()
                    hex_list = (HEX_COST * node_cost).tolist()
                    if engine is not None and iteration > 0:
                        failed, ripped = self._iterate_parallel(
                            engine, targets, net_usage, iteration, occupancy,
                            capacity, history, cost_list, hex_list, pres_fac,
                            nrows, ncols,
                        )
                    elif self.soa and iteration > 0:
                        # A target is path-less iff its direct route does
                        # not exist — a fixed set, so the iteration-0
                        # failure count says whether any exist at all.
                        failed, ripped = self._iterate_serial_soa(
                            targets, net_usage, occupancy,
                            capacity, history, cost_list, hex_list, pres_fac,
                            nrows, ncols, unrouted=zero_failed,
                        )
                    else:
                        failed, ripped = self._iterate_serial(
                            targets, net_usage, iteration, occupancy,
                            capacity, history, cost_list, hex_list, pres_fac,
                            nrows, ncols,
                        )

            overused = occupancy > capacity
            n_over = int(np.count_nonzero(overused))
            incr("route.ripup", ripped)
            sample("route.overuse", n_over, iteration=iterations)
            if n_over == 0 and failed == 0:
                break
            history += np.maximum(occupancy - capacity, 0.0) / capacity
            pres_fac *= self.pres_fac_mult

        return self._finalize(
            design, targets, occupancy, capacity, iterations, preexisting,
            timer,
        )

    def _finalize(
        self, design, targets, occupancy, capacity, iterations, preexisting,
        timer,
    ) -> RouteResult:
        """Write committed paths back onto the nets and build the result."""
        with timer.stage("route/commit"):
            paths = []
            for tgt in targets:
                if tgt.path is None:
                    continue
                design.nets[tgt.net_name].routes[tgt.sink_index] = tgt.path
                paths.append(tgt.path)
            wirelength = int(self.graph.path_metrics_batch(paths)[0].sum())

        n_over_final = int(np.count_nonzero(occupancy > capacity))
        incr("route.connections", len(targets))
        incr("route.failed", sum(1 for t in targets if t.path is None))
        incr("route.iterations", iterations)
        observe("route.wirelength", wirelength)
        return RouteResult(
            routed=sum(1 for t in targets if t.path is not None),
            failed=sum(1 for t in targets if t.path is None),
            iterations=iterations,
            wirelength=wirelength,
            overused_nodes=n_over_final,
            preexisting=preexisting,
        )

    # -- one negotiation iteration ---------------------------------------

    def _iterate_serial(
        self, targets, net_usage, iteration, occupancy, capacity, history,
        cost_list, hex_list, pres_fac, nrows, ncols,
    ) -> tuple[int, int]:
        failed = 0
        ripped = 0
        for tgt in targets:
            usage = net_usage[tgt.net_name]
            if tgt.path is not None:
                if iteration and not _path_overused(tgt.inner_arr, occupancy, capacity):
                    continue  # keep clean paths; reroute congested ones
                ripped += 1
                self._rip(tgt, usage, occupancy, capacity, history,
                          cost_list, hex_list, pres_fac)
            if iteration == 0:
                # quick pass: congestion-oblivious direct route
                path = direct_path(tgt.src_node, tgt.dst_node, nrows)
            else:
                path = astar_route(
                    tgt.src_node, tgt.dst_node, nrows, ncols, cost_list,
                    heuristic_weight=_REROUTE_WEIGHT, _hex=hex_list,
                )
                if path is None:
                    # keep connectivity: fall back to the direct route and
                    # let negotiation continue elsewhere
                    path = direct_path(tgt.src_node, tgt.dst_node, nrows)
            if path is None:
                failed += 1
                continue
            self._commit(tgt, path, usage, occupancy, capacity, history,
                         cost_list, hex_list, pres_fac)
        return failed, ripped

    def _iterate_parallel(
        self, engine, targets, net_usage, iteration, occupancy, capacity,
        history, cost_list, hex_list, pres_fac, nrows, ncols,
    ) -> tuple[int, int]:
        """One reroute iteration in window-disjoint waves, bit-identical
        to :meth:`_iterate_serial`.

        A wave is a maximal *prefix* of the remaining serial schedule
        whose pending reroutes have pairwise-disjoint footprints (old
        path bbox united with the certified A* search window): every
        value a wave member reads — occupancy for the rip-up decision,
        costs inside its window for the search — is then unaffected by
        the other members' writes, so ripping all members first, running
        their searches concurrently, and committing in serial order
        reproduces the interleaved serial schedule exactly.  The window
        is computed *before* the member's own rip-up: ripping only
        lowers costs along the old path, so the pre-rip window contains
        the post-rip (serial) one and the certification of
        :func:`~repro.route.maze._window_bounds` still applies.  Targets
        of one net always conflict (both windows contain the driver),
        which protects the shared trunk-usage bookkeeping.  Searches go
        through :class:`repro.engine.Engine` and ship only their window's
        cost values; waves of one run inline.
        """
        from ..engine import TaskGraph

        failed = 0
        ripped = 0
        idx = 0
        wave_no = 0
        while idx < len(targets):
            wave: list[tuple[_Target, tuple[int, int, int, int]]] = []
            boxes: list[tuple[int, int, int, int]] = []
            j = idx
            while j < len(targets):
                tgt = targets[j]
                path_box = _node_bbox(tgt.path_arr, nrows)
                if _hits(path_box, boxes):
                    break  # decision depends on a wave member's result
                if not _path_overused(tgt.inner_arr, occupancy, capacity):
                    j += 1
                    continue  # clean: the serial schedule skips it too
                bounds = _window_bounds(
                    tgt.src_node, tgt.dst_node, nrows, ncols, cost_list,
                    _REROUTE_WEIGHT,
                )
                footprint = _union_bbox(path_box, bounds)
                if _hits(footprint, boxes):
                    break
                wave.append((tgt, bounds))
                boxes.append(footprint)
                j += 1
            for tgt, _bounds in wave:
                ripped += 1
                self._rip(
                    tgt, net_usage[tgt.net_name], occupancy, capacity,
                    history, cost_list, hex_list, pres_fac,
                )
            if len(wave) == 1:
                tgt, bounds = wave[0]
                paths = [astar_route(
                    tgt.src_node, tgt.dst_node, nrows, ncols, cost_list,
                    heuristic_weight=_REROUTE_WEIGHT, _bounds=bounds,
                    _hex=hex_list,
                )]
            elif wave:
                graph = TaskGraph()
                for k, (tgt, bounds) in enumerate(wave):
                    graph.add(
                        f"i{iteration}.w{wave_no}.c{k}",
                        _search_task,
                        args=(
                            tgt.src_node, tgt.dst_node, nrows, ncols, bounds,
                            _window_cost_map(bounds, nrows, cost_list),
                            _REROUTE_WEIGHT,
                        ),
                        stage="route/search",
                    )
                report = engine.run(graph)
                paths = [
                    report.results[f"i{iteration}.w{wave_no}.c{k}"]
                    for k in range(len(wave))
                ]
            else:
                paths = []
            if wave:
                observe("route.wave_size", len(wave))
                wave_no += 1
            for (tgt, _bounds), path in zip(wave, paths):
                if path is None:
                    path = direct_path(tgt.src_node, tgt.dst_node, nrows)
                if path is None:
                    failed += 1
                    continue
                self._commit(
                    tgt, path, net_usage[tgt.net_name], occupancy, capacity,
                    history, cost_list, hex_list, pres_fac,
                )
            idx = j
        return failed, ripped

    # -- structure-of-arrays iterations ----------------------------------

    def _setup_targets_soa(self, design, nrows, ncols) -> list["_Target"]:
        """Array-built target list, identical to the scalar setup loop:
        same net/sink collection order, the same ``RoutingError`` /
        ``IndexError`` at the same first offender, and the same stable
        short-connections-first order (stable argsort on the same keys
        equals a stable ``list.sort`` on them).
        """
        names: list[str] = []
        sink_idx: list[int] = []
        widths: list[int] = []
        coords: list[tuple[int, int, int, int]] = []
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
                names.append(net.name)
                sink_idx.append(i)
                widths.append(net.width)
                coords.append(driver.placement + sink.placement)
        if not coords:
            return []
        arr = np.asarray(coords, dtype=np.int64)  # columns: sc, sr, dc, dr
        cols = arr[:, 0::2]
        rows = arr[:, 1::2]
        ok = (cols >= 0) & (cols < ncols) & (rows >= 0) & (rows < nrows)
        if not ok.all():
            # argwhere is row-major: first bad target, driver endpoint
            # before sink — the order node_id() would have raised in.
            t, e = (int(v) for v in np.argwhere(~ok)[0])
            raise IndexError(
                f"tile ({int(arr[t, 2 * e])},{int(arr[t, 2 * e + 1])}) "
                "outside device"
            )
        src = (arr[:, 0] * nrows + arr[:, 1]).tolist()
        dst = (arr[:, 2] * nrows + arr[:, 3]).tolist()
        # Short connections first: they establish uncontested fabric use.
        key = np.abs(arr[:, 0] - arr[:, 2]) + np.abs(arr[:, 1] - arr[:, 3])
        return [
            _Target(
                net_name=names[j],
                sink_index=sink_idx[j],
                src_node=src[j],
                dst_node=dst[j],
                width=widths[j],
            )
            for j in np.argsort(key, kind="stable").tolist()
        ]

    def _iterate_zero_soa(self, targets, net_usage, occupancy, nrows) -> tuple[int, int]:
        """Batched first iteration: every target gets its direct route.

        Bit-identical to :meth:`_iterate_serial` at ``iteration == 0``:
        the direct routes are state-independent, all occupancy charges
        are integer-valued float additions (exact, hence
        order-independent), and the skipped per-commit cost refreshes
        are unobservable — no search runs during iteration 0 and the
        cost tables are rebuilt from the arrays before the next one.
        Targets of nets with preexisting committed routes fall back to
        the scalar commit accounting (their usage dicts are not empty,
        so first-use detection needs the running counts).
        """
        n_nodes = self.graph.n_nodes
        fresh: list[_Target] = []
        fresh_gids: list[int] = []
        stale: list[_Target] = []
        net_index: dict[str, int] = {}
        names: list[str] = []
        widths: list[float] = []
        for tgt in targets:
            if net_usage[tgt.net_name]:
                stale.append(tgt)
                continue
            gid = net_index.get(tgt.net_name)
            if gid is None:
                gid = net_index[tgt.net_name] = len(names)
                names.append(tgt.net_name)
                widths.append(float(tgt.width))
            fresh.append(tgt)
            fresh_gids.append(gid)
        if fresh:
            n = len(fresh)
            srcs = np.fromiter((t.src_node for t in fresh), np.int64, count=n)
            dsts = np.fromiter((t.dst_node for t in fresh), np.int64, count=n)
            flat, offs = direct_paths_batch(srcs, dsts, nrows)
            flat_l = flat.tolist()
            offs_l = offs.tolist()
            for m, tgt in enumerate(fresh):
                o0 = offs_l[m]
                o1 = offs_l[m + 1]
                path = flat_l[o0:o1]
                tgt.path = path
                tgt.inner = path[1:-1]
                tgt.path_arr = flat[o0:o1]
                tgt.inner_arr = flat[o0 + 1 : o1 - 1]
            keep = np.ones(flat.size, dtype=bool)
            keep[offs[:-1]] = False
            keep[offs[1:] - 1] = False
            inner_offs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.maximum(np.diff(offs) - 2, 0), out=inner_offs[1:])
            u_net, u_node, u_count = batch_usage(
                flat[keep], inner_offs, np.asarray(fresh_gids, np.int64), n_nodes
            )
            if u_node.size:
                w = np.asarray(widths)
                occupancy += np.bincount(
                    u_node, weights=w[u_net], minlength=n_nodes
                )
                # batch_usage keys are sorted by (net, node): one
                # searchsorted finds each net's run, and its usage dict
                # is built in one C-speed dict(zip(...)).  Fresh nets'
                # dicts are empty, so rebinding them is safe.
                nodes_l = u_node.tolist()
                counts_l = u_count.tolist()
                edges = np.searchsorted(
                    u_net, np.arange(len(names) + 1)
                ).tolist()
                for g, name in enumerate(names):
                    a, b = edges[g], edges[g + 1]
                    if a < b:
                        net_usage[name] = dict(
                            zip(nodes_l[a:b], counts_l[a:b])
                        )
        for tgt in stale:
            path = direct_path(tgt.src_node, tgt.dst_node, nrows)
            tgt.set_path(path)
            usage = net_usage[tgt.net_name]
            added = []
            for node in tgt.inner:
                count = usage.get(node, 0)
                usage[node] = count + 1
                if count == 0:
                    added.append(node)
            if added:
                occupancy[added] += tgt.width
        return 0, 0

    def _iterate_serial_soa(
        self, targets, net_usage, occupancy, capacity, history,
        cost_list, hex_list, pres_fac, nrows, ncols, unrouted=0,
    ) -> tuple[int, int]:
        """Reroute iteration with block-prescreened rip-up decisions,
        bit-identical to :meth:`_iterate_serial` at ``iteration > 0``.

        The overuse flags for a block of consecutive targets are one
        vectorized reduction instead of a per-target comparison.  A
        prescreened flag is exactly the check the serial schedule would
        make as long as occupancy hasn't changed since the block was
        flagged — so the scan stops at the block's first flagged target
        (whose rip/reroute/commit mutates occupancy) and reflags from
        the next target on.  Clean prefixes skip at array speed; the
        dirty target itself runs the ordinary serial body.
        """
        failed = 0
        ripped = 0
        n = len(targets)
        idx = 0
        block = 256
        while idx < n:
            end = min(idx + block, n)
            chunk = targets[idx:end]
            nc = len(chunk)
            arrs = [t.inner_arr for t in chunk]
            lens = np.fromiter((a.size for a in arrs), np.int64, count=nc)
            offs = np.zeros(nc + 1, dtype=np.int64)
            np.cumsum(lens, out=offs[1:])
            flat = np.concatenate(arrs) if arrs else _EMPTY
            base = 0
            while base < nc:
                # Reflag only the block's suffix: the handled target's
                # mutations sit behind `base`, and the suffix's inner
                # arrays are untouched, so the concat is reusable.
                flags = overused_flags(
                    flat[offs[base] :], offs[base:] - offs[base],
                    occupancy, capacity,
                )
                if unrouted:
                    # Rare: some target has no path at all (its direct
                    # route does not exist) — flags can't see it, scan.
                    m = -1
                    for j in range(base, nc):
                        if chunk[j].path is None or flags[j - base]:
                            m = j
                            break
                else:
                    hits = np.flatnonzero(flags)
                    m = base + int(hits[0]) if hits.size else -1
                if m < 0:
                    break
                tgt = chunk[m]
                usage = net_usage[tgt.net_name]
                if tgt.path is not None:
                    ripped += 1
                    self._rip(tgt, usage, occupancy, capacity, history,
                              cost_list, hex_list, pres_fac)
                path = astar_route(
                    tgt.src_node, tgt.dst_node, nrows, ncols, cost_list,
                    heuristic_weight=_REROUTE_WEIGHT, _hex=hex_list,
                )
                if path is None:
                    path = direct_path(tgt.src_node, tgt.dst_node, nrows)
                if path is None:
                    failed += 1
                    base = m + 1
                    continue
                self._commit(tgt, path, usage, occupancy, capacity, history,
                             cost_list, hex_list, pres_fac)
                base = m + 1
            idx = end
        return failed, ripped

    # -- per-path state updates ------------------------------------------

    def _rip(self, tgt, usage, occupancy, capacity, history, cost_list, hex_list, pres_fac) -> None:
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
        if self.soa:
            # Incremental refresh: only the freed nodes changed occupancy;
            # every other node on the path would recompute to the value
            # the cost table already holds (same formula, same inputs).
            refresh_cost_nodes(
                np.asarray(freed, dtype=np.intp), occupancy, capacity,
                history, cost_list, hex_list, pres_fac, self.hist_fac,
            )
        else:
            self._refresh_cost(tgt.path_arr, tgt.path, occupancy, capacity, history, cost_list, hex_list, pres_fac)
        tgt.clear_path()

    def _commit(self, tgt, path, usage, occupancy, capacity, history, cost_list, hex_list, pres_fac) -> None:
        """Install a fresh path: charge occupancy for interior nodes the
        net doesn't already use, then refresh costs along the path."""
        tgt.set_path(path)
        added_arr = None
        if usage:
            added = []
            for node in tgt.inner:
                count = usage.get(node, 0)
                usage[node] = count + 1
                if count == 0:
                    added.append(node)
            if added:
                occupancy[added] += tgt.width
            if self.soa:
                added_arr = np.asarray(added, dtype=np.intp)
        elif tgt.inner:
            # Fast path: nothing of this net is routed yet, every interior
            # node is newly charged — one fancy-indexed update.
            for node in tgt.inner:
                usage[node] = 1
            occupancy[tgt.inner_arr] += tgt.width
            added_arr = tgt.inner_arr
        else:
            added_arr = _EMPTY
        if self.soa:
            # Only the newly charged nodes changed occupancy — see _rip.
            refresh_cost_nodes(
                added_arr, occupancy, capacity, history,
                cost_list, hex_list, pres_fac, self.hist_fac,
            )
        else:
            self._refresh_cost(tgt.path_arr, path, occupancy, capacity, history, cost_list, hex_list, pres_fac)

    def _refresh_cost(self, path_arr, path, occupancy, capacity, history, cost_list, hex_list, pres_fac) -> None:
        """Recompute node costs along one path (vectorized) and write them
        back into the iteration's flat cost list (and its premultiplied
        hex companion), so subsequent searches this iteration see current
        congestion."""
        over_p = np.maximum(occupancy[path_arr] - capacity[path_arr], 0.0) / capacity[path_arr]
        vals = (1.0 + pres_fac * over_p + self.hist_fac * history[path_arr]).tolist()
        for node, val in zip(path, vals):
            cost_list[node] = val
            hex_list[node] = HEX_COST * val
