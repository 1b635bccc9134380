"""Region-sharded PathFinder schedule.

The classic router interleaves rip-up and reroute target by target, so
every search depends on the commit just before it — a chain that cannot
be parallelized beyond the window-disjoint waves of
:meth:`~repro.route.pathfinder.Router._iterate_parallel`.  This module
trades that schedule for a *rip-all-first* one that shards cleanly:

1. Snapshot the overuse flags for every committed path (one vectorized
   reduction) and rip **all** flagged targets up front.
2. Rebuild the iteration's cost tables from the occupancy/history
   arrays — rips no longer need per-path cost refreshes at all.
3. Compute each ripped target's certified A* search window
   (:func:`~repro.route.maze._window_bounds`) on those tables and pin
   it: every search this iteration runs with explicit ``_bounds``.
4. Classify nets: a net whose ripped targets' windows all fit inside
   one shard rectangle is *shard-interior*; everything else is
   *global*.  Shard-interior nets are routed shard by shard, the global
   bucket last, each bucket in target order.

Because a shard bucket's searches and commits only ever read and write
nodes inside the shard rectangle (path ⊆ window ⊆ shard), buckets of
different shards commute: routing them concurrently on
:class:`repro.engine.Engine` workers and replaying the commits in shard
order on the primary is byte-identical to routing the buckets serially
in shard order.  The ``soa=False`` / ``jobs=1`` configuration runs the
same schedule through the scalar kernels and is the retained serial
oracle — ``tests/test_property_shard.py`` asserts sharded results match
it bit for bit at every ``soa``/``jobs`` setting.

A sharded run is a *different* (equally valid) negotiation schedule
from the classic router, so its routes may differ from ``shards=None``;
determinism is per schedule, not across schedules.
"""

from __future__ import annotations

import numpy as np

from ..obs.span import incr, observe, sample, span
from .maze import _window_bounds, astar_route, direct_path
from .soa import overused_flags, refresh_cost_nodes

__all__ = ["AUTO_MIN_TARGETS", "resolve_grid", "route_sharded"]

#: Oracle contract: the serial ``jobs=1``/``soa=False`` configuration of
#: this same schedule is the retained reference (see module docstring).
ORACLE = "repro.route.shard.route_sharded"

#: ``shards="auto"`` stays on the classic schedule below this many
#: connections — sharding pays off only when the rip-up scan and the
#: per-iteration search volume are large.
AUTO_MIN_TARGETS = 4000

#: Weighted-A* factor used on reroute passes (matches the classic router).
_REROUTE_WEIGHT = 1.15

_EMPTY = np.empty(0, dtype=np.intp)


def resolve_grid(
    shards: tuple[int, int] | str, n_targets: int
) -> tuple[int, int] | None:
    """Normalize a ``Router(shards=...)`` setting to a ``(gc, gr)`` grid.

    Returns ``None`` when the classic schedule should run instead:
    ``"auto"`` below :data:`AUTO_MIN_TARGETS` targets.  An explicit
    tuple always shards (even ``(1, 1)``, which exercises the
    rip-all-first schedule with a single shard).
    """
    if isinstance(shards, str):
        if shards != "auto":
            raise ValueError(f"unknown shards setting: {shards!r}")
        if n_targets < AUTO_MIN_TARGETS:
            return None
        return (2, 2)
    gc, gr = int(shards[0]), int(shards[1])
    if gc < 1 or gr < 1:
        raise ValueError(f"shard grid must be positive: {shards!r}")
    return (gc, gr)


def _shard_of(
    bounds: tuple[int, int, int, int],
    col_cuts: list[int],
    row_cuts: list[int],
    gr: int,
) -> int | None:
    """Shard index whose rectangle contains *bounds* entirely, else None."""
    col_lo, row_lo, col_hi, row_hi = bounds
    from bisect import bisect_right

    ci = bisect_right(col_cuts, col_lo) - 1
    if col_hi >= col_cuts[ci + 1]:
        return None
    ri = bisect_right(row_cuts, row_lo) - 1
    if row_hi >= row_cuts[ri + 1]:
        return None
    return ci * gr + ri


def _shard_task(
    pairs: list[tuple[int, int]],
    bounds_list: list[tuple[int, int, int, int]],
    widths: list[int],
    gids: list[int],
    usages: list[dict[int, int]],
    occupancy: np.ndarray,
    capacity: np.ndarray,
    history: np.ndarray,
    cost_list: list[float],
    hex_list: list[float],
    pres_fac: float,
    hist_fac: float,
    nrows: int,
    ncols: int,
) -> list[list[int] | None]:
    """Route one shard bucket on a worker.

    The worker receives copies (via pickling) of the full cost tables
    and the bucket's per-net usage dicts, then runs exactly the serial
    search→commit sequence for its targets.  Every node it reads or
    writes lies inside the shard rectangle, where its own commits are
    the only mutations — so the returned paths equal the ones the
    serial-shard-order schedule would produce, and the primary replays
    the commits against the shared state.
    """
    paths: list[list[int] | None] = []
    for (src, dst), bounds, width, gid in zip(pairs, bounds_list, widths, gids):
        path = astar_route(
            src, dst, nrows, ncols, cost_list,
            heuristic_weight=_REROUTE_WEIGHT, _bounds=bounds, _hex=hex_list,
        )
        if path is None:
            path = direct_path(src, dst, nrows)
        paths.append(path)
        if path is None:
            continue
        usage = usages[gid]
        added = []
        for node in path[1:-1]:
            count = usage.get(node, 0)
            usage[node] = count + 1
            if count == 0:
                added.append(node)
        if added:
            occupancy[added] += width
            refresh_cost_nodes(
                np.asarray(added, dtype=np.intp), occupancy, capacity,
                history, cost_list, hex_list, pres_fac, hist_fac,
            )
    return paths


def route_sharded(
    router, design, targets, net_usage, occupancy, preexisting, blocked,
    grid, timer,
):
    """Run the rip-all-first sharded schedule.  See the module docstring.

    Called from :meth:`Router.route` after target setup; *grid* is the
    resolved ``(gc, gr)`` shard grid.
    """
    graph = router.graph
    nrows, ncols = router.device.nrows, router.device.ncols
    capacity = graph.capacity.astype(np.float64)
    history = np.zeros(graph.n_nodes, dtype=np.float64)
    pres_fac = router.pres_fac_init
    gc, gr = grid
    col_cuts = [ncols * k // gc for k in range(gc + 1)]
    row_cuts = [nrows * k // gr for k in range(gr + 1)]
    engine = None
    if router.jobs > 1:
        from ..engine import Engine

        engine = Engine(jobs=router.jobs)

    iterations = 0
    failed = 0
    for iteration in range(router.max_iters):
        iterations = iteration + 1
        with timer.stage("route/iterate"):
            if iteration == 0:
                if router.soa:
                    failed, ripped = router._iterate_zero_soa(
                        targets, net_usage, occupancy, nrows
                    )
                else:
                    failed, ripped = _iterate_zero_scalar(
                        targets, net_usage, occupancy, nrows
                    )
            else:
                failed, ripped = _iterate_sharded(
                    router, targets, net_usage, occupancy, capacity,
                    history, pres_fac, blocked, col_cuts, row_cuts, gr,
                    engine, iteration, nrows, ncols,
                )

        n_over = int(np.count_nonzero(occupancy > capacity))
        incr("route.ripup", ripped)
        sample("route.overuse", n_over, iteration=iterations)
        if n_over == 0 and failed == 0:
            break
        history += np.maximum(occupancy - capacity, 0.0) / capacity
        pres_fac *= router.pres_fac_mult

    return router._finalize(
        design, targets, occupancy, capacity, iterations, preexisting,
        timer,
    )


def _iterate_zero_scalar(targets, net_usage, occupancy, nrows) -> tuple[int, int]:
    """Scalar first iteration: direct route + usage accounting per target.

    The oracle counterpart of
    :meth:`Router._iterate_zero_soa` — no cost tables exist yet (the
    sharded schedule builds them fresh each iteration), so commits are
    pure occupancy/usage bookkeeping.
    """
    failed = 0
    for tgt in targets:
        path = direct_path(tgt.src_node, tgt.dst_node, nrows)
        if path is None:
            failed += 1
            continue
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
    return failed, 0


def _iterate_sharded(
    router, targets, net_usage, occupancy, capacity, history, pres_fac,
    blocked, col_cuts, row_cuts, gr, engine, iteration, nrows, ncols,
) -> tuple[int, int]:
    """One rip-all-first negotiation iteration over the shard grid."""
    from ..fabric.interconnect import HEX_COST

    # -- 1. snapshot rip decisions against the iteration-entry occupancy
    if router.soa:
        arrs = [t.inner_arr for t in targets]
        lens = np.fromiter((a.size for a in arrs), np.int64, count=len(arrs))
        offs = np.zeros(len(arrs) + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        flags = overused_flags(
            np.concatenate(arrs) if arrs else _EMPTY, offs, occupancy, capacity
        )
        ripe = [
            t for t, f in zip(targets, flags) if t.path is None or bool(f)
        ]
    else:
        from .pathfinder import _path_overused

        ripe = [
            t for t in targets
            if t.path is None
            or _path_overused(t.inner_arr, occupancy, capacity)
        ]

    ripped = 0
    for tgt in ripe:
        if tgt.path is None:
            continue
        ripped += 1
        usage = net_usage[tgt.net_name]
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
        tgt.clear_path()

    # -- 2. cost tables rebuilt from the arrays (rips need no refreshes)
    over = np.maximum(occupancy - capacity, 0.0) / capacity
    node_cost = 1.0 + pres_fac * over + router.hist_fac * history
    if blocked is not None:
        node_cost[blocked] = 1e12
    cost_list = node_cost.tolist()
    hex_list = (HEX_COST * node_cost).tolist()

    # -- 3. pin each target's certified window; classify nets by shard
    windows: dict[int, tuple[int, int, int, int]] = {}
    net_shard: dict[str, int | None] = {}
    for tgt in ripe:
        bounds = _window_bounds(
            tgt.src_node, tgt.dst_node, nrows, ncols, cost_list,
            _REROUTE_WEIGHT,
        )
        windows[id(tgt)] = bounds
        s = _shard_of(bounds, col_cuts, row_cuts, gr)
        prev = net_shard.get(tgt.net_name, -1)
        if prev == -1:
            net_shard[tgt.net_name] = s
        elif prev != s:
            net_shard[tgt.net_name] = None

    n_shards = (len(col_cuts) - 1) * gr
    buckets: list[list] = [[] for _ in range(n_shards)]
    global_bucket: list = []
    for tgt in ripe:
        s = net_shard[tgt.net_name]
        if s is None:
            global_bucket.append(tgt)
        else:
            buckets[s].append(tgt)

    failed = 0

    def _route_bucket(bucket) -> int:
        miss = 0
        for tgt in bucket:
            path = astar_route(
                tgt.src_node, tgt.dst_node, nrows, ncols, cost_list,
                heuristic_weight=_REROUTE_WEIGHT,
                _bounds=windows[id(tgt)], _hex=hex_list,
            )
            if path is None:
                path = direct_path(tgt.src_node, tgt.dst_node, nrows)
            if path is None:
                miss += 1
                continue
            router._commit(
                tgt, path, net_usage[tgt.net_name], occupancy, capacity,
                history, cost_list, hex_list, pres_fac,
            )
        return miss

    # -- 4. shard buckets (concurrently when possible), then the global one
    busy = [s for s in range(n_shards) if buckets[s]]
    if engine is not None and len(busy) > 1:
        from ..engine import TaskGraph

        tg = TaskGraph()
        for s in busy:
            bucket = buckets[s]
            gids: list[int] = []
            gid_of: dict[str, int] = {}
            usages: list[dict[int, int]] = []
            for tgt in bucket:
                gid = gid_of.get(tgt.net_name)
                if gid is None:
                    gid = gid_of[tgt.net_name] = len(usages)
                    usages.append(net_usage[tgt.net_name])
                gids.append(gid)
            tg.add(
                f"i{iteration}.s{s}",
                _shard_task,
                args=(
                    [(t.src_node, t.dst_node) for t in bucket],
                    [windows[id(t)] for t in bucket],
                    [t.width for t in bucket],
                    gids,
                    usages,
                    occupancy, capacity, history, cost_list, hex_list,
                    pres_fac, router.hist_fac, nrows, ncols,
                ),
                stage="route/shard",
            )
        report = engine.run(tg)
        for s in busy:
            bucket = buckets[s]
            paths = report.results[f"i{iteration}.s{s}"]
            with span(
                "route/shard", iteration=iteration, shard=s,
                targets=len(bucket), mode="engine",
            ):
                for tgt, path in zip(bucket, paths):
                    if path is None:
                        failed += 1
                        continue
                    router._commit(
                        tgt, path, net_usage[tgt.net_name], occupancy,
                        capacity, history, cost_list, hex_list, pres_fac,
                    )
    else:
        for s in busy:
            with span(
                "route/shard", iteration=iteration, shard=s,
                targets=len(buckets[s]), mode="serial",
            ):
                failed += _route_bucket(buckets[s])

    if global_bucket:
        with span(
            "route/shard", iteration=iteration, shard=-1,
            targets=len(global_bucket), mode="global",
        ):
            failed += _route_bucket(global_bucket)
    observe("route.shard_interior", sum(len(b) for b in buckets))
    observe("route.shard_global", len(global_bucket))
    return failed, ripped
