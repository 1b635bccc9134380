"""A* maze expansion over the implicit grid routing graph.

The expansion is written with inlined neighbor arithmetic (single and hex
wires) instead of calling back into :class:`RoutingGraph` — this inner
loop dominates routing time, and the HPC guides are blunt about hot-loop
overhead in Python.  Costs combine the wire base cost with
negotiated-congestion multipliers supplied by the caller (PathFinder).

Two implementations live here:

* :func:`astar_route` — the production search.  Per-node state
  (``g``-scores, parents, closed flags) lives in flat preallocated arena
  arrays validated by a generation counter, so repeated calls reuse the
  same memory with no per-call clearing; expansion is clipped to a
  dilated bounding-box window around ``(src, dst)`` whose radius is
  *certified* (see :func:`_window_bounds`) to contain every node the
  unwindowed search could pop — the returned paths are bit-identical to
  the reference search.
* :func:`astar_route_reference` — the original dict/heap search, kept as
  the equivalence oracle for property tests.
"""

from __future__ import annotations

import threading
from heapq import heappop, heappush

import numpy as np

from ..fabric.interconnect import HEX_COST, HEX_REACH, SINGLE_COST
from ..obs.span import incr

__all__ = [
    "astar_route",
    "astar_route_reference",
    "direct_path",
]

#: Cheapest conceivable cost per tile travelled (hex wires win).
_PER_TILE_MIN = min(SINGLE_COST, HEX_COST / HEX_REACH)


def direct_path(src: int, dst: int, nrows: int) -> list[int]:
    """Congestion-oblivious L-shaped route: hex wires then singles,
    columns first, then rows.

    Stays inside the bounding box of the endpoints (hence inside any
    rectangular region containing them).  Used as the cheap first-pass
    route; PathFinder rips up and A*-reroutes whatever ends up overused.
    """
    path = [src]
    node = src
    dcol = dst // nrows - src // nrows
    step_c = HEX_REACH * nrows if dcol > 0 else -HEX_REACH * nrows
    for _ in range(abs(dcol) // HEX_REACH):
        node += step_c
        path.append(node)
    for _ in range(abs(dcol) % HEX_REACH):
        node += nrows if dcol > 0 else -nrows
        path.append(node)
    drow = dst % nrows - src % nrows
    step_r = HEX_REACH if drow > 0 else -HEX_REACH
    for _ in range(abs(drow) // HEX_REACH):
        node += step_r
        path.append(node)
    for _ in range(abs(drow) % HEX_REACH):
        node += 1 if drow > 0 else -1
        path.append(node)
    return path


def _path_cost(path: list[int], nrows: int, node_cost: np.ndarray) -> float:
    """Cost of an existing node path under per-node entry costs."""
    total = 0.0
    prev = path[0]
    for node in path[1:]:
        tiles = abs(node // nrows - prev // nrows) + abs(node % nrows - prev % nrows)
        base = SINGLE_COST if tiles == 1 else HEX_COST
        total += base * node_cost[node]
        prev = node
    return total


def _direct_cost(src: int, dst: int, nrows: int, node_cost) -> float:
    """Cost of :func:`direct_path` without building the path list.

    Walks the same nodes in the same order with the same per-step
    multiplies as ``_path_cost(direct_path(...))``, so the float result
    is bit-identical — only the intermediate list is skipped.
    """
    total = 0.0
    node = src
    dcol = dst // nrows - src // nrows
    step_c = HEX_REACH * nrows if dcol > 0 else -HEX_REACH * nrows
    for _ in range(abs(dcol) // HEX_REACH):
        node += step_c
        total += HEX_COST * node_cost[node]
    step_c = nrows if dcol > 0 else -nrows
    for _ in range(abs(dcol) % HEX_REACH):
        node += step_c
        total += SINGLE_COST * node_cost[node]
    drow = dst % nrows - src % nrows
    step_r = HEX_REACH if drow > 0 else -HEX_REACH
    for _ in range(abs(drow) // HEX_REACH):
        node += step_r
        total += HEX_COST * node_cost[node]
    step_r = 1 if drow > 0 else -1
    for _ in range(abs(drow) % HEX_REACH):
        node += step_r
        total += SINGLE_COST * node_cost[node]
    return total


def _window_bounds(
    src: int, dst: int, nrows: int, ncols: int,
    node_cost: np.ndarray, heuristic_weight: float,
) -> tuple[int, int, int, int]:
    """Dilated bounding box certified to contain the whole search.

    Let ``D`` be the cost of the direct L-path under the current costs
    (an upper bound on the optimal cost ``C*``), ``w >= 1`` the heuristic
    weight, and ``c_min`` the cheapest cost per tile.  Weighted A* returns
    a path of cost ``g <= w * C* <= w * D``, and any node ``n`` popped
    before ``dst`` satisfies ``f(n) <= w * g`` (some node of the returned
    path always sits in the open list at its final ``f``, which is at most
    ``w * g``).  With ``g(n) >= c_min * dist(src, n)`` and
    ``h(n) = c_min * w * dist(n, dst)`` this gives

        ``dist(src, n) + w * dist(n, dst)  <=  w^2 * D / c_min``

    for every popped node — and excluded nodes can never be popped before
    ``dst``, so clipping relaxations to this region leaves the pop
    sequence (hence the returned path and the expansion count)
    bit-identical to the unwindowed search.  The L1 ellipse is relaxed to
    its bounding box: a node ``r`` tiles outside the endpoints' box has
    both distances ``>= r``, so ``r <= bound / (1 + w)``.

    Requires ``node_cost >= 1`` everywhere, same as the heuristic itself.
    """
    w = max(1.0, heuristic_weight)
    bound = w * w * _direct_cost(src, dst, nrows, node_cost)
    bound = bound / _PER_TILE_MIN
    # The ellipse uses the *actual* weight (a deflated heuristic widens
    # it); float-safety slack only — the derivation is exact in reals.
    divisor = 1.0 + max(0.0, min(w, heuristic_weight))
    radius = int(min(bound * (1.0 + 1e-9) / divisor, nrows + ncols)) + 1
    sc, sr = divmod(src, nrows)
    dc, dr = divmod(dst, nrows)
    return (
        max(0, min(sc, dc) - radius),
        max(0, min(sr, dr) - radius),
        min(ncols - 1, max(sc, dc) + radius),
        min(nrows - 1, max(sr, dr) + radius),
    )


class _Arena:
    """Reusable flat search state, validated by a generation counter.

    ``g``/``parent``/``closed`` entries are only meaningful where the
    matching stamp equals the current generation, so a new search costs
    one integer increment instead of clearing ``n_nodes`` entries, and
    the stamps never need resetting (Python ints don't wrap).

    The arenas are flat preallocated Python lists, not ndarrays: the
    search is a scalar loop, and CPython list indexing plus native float
    arithmetic beats single-element ndarray access (and ``np.float64``
    heap comparisons) by ~3x — measured in
    ``benchmarks/bench_hotpaths.py``; NumPy still owns every batch update
    in PathFinder and the annealer, where fancy indexing amortizes.
    """

    __slots__ = ("n", "g", "parent", "stamp", "gen", "dist_tables")

    def __init__(self) -> None:
        self.n = 0
        self.gen = 0
        # Manhattan-distance tables keyed by (axis_len, target_coord) —
        # exact int contents, so sharing them across searches is free.
        # A batch reuses the same few hundred keys thousands of times.
        self.dist_tables: dict[tuple[int, int], list[int]] = {}

    def acquire(self, n_nodes: int) -> int:
        if n_nodes > self.n:
            grow = n_nodes - self.n
            if self.n == 0:
                self.g = [0.0] * n_nodes
                self.parent = [0] * n_nodes
                self.stamp = [0] * n_nodes
            else:
                self.g += [0.0] * grow
                self.parent += [0] * grow
                self.stamp += [0] * grow
            self.n = n_nodes
        self.gen += 1
        return self.gen


_local = threading.local()


def _arena() -> _Arena:
    arena = getattr(_local, "arena", None)
    if arena is None:
        arena = _local.arena = _Arena()
    return arena


def astar_route(
    src: int,
    dst: int,
    nrows: int,
    ncols: int,
    node_cost: np.ndarray,
    *,
    max_expansions: int = 200_000,
    heuristic_weight: float = 1.0,
    window: bool = True,
    _hex: list[float] | None = None,
) -> list[int] | None:
    """Shortest path from *src* to *dst* under per-node entry costs.

    ``node_cost[n]`` is the congestion-adjusted multiplier for entering
    node *n* (>= 1); an ndarray works, but a flat Python list (PathFinder
    converts once per iteration) keeps the inner loop in native floats
    and is markedly faster.
    With ``heuristic_weight == 1`` the heuristic
    (cheapest cost per tile times Manhattan distance) is admissible and
    the result is optimal.  With ``heuristic_weight > 1`` the heuristic
    is deliberately *inadmissible* — this is bounded-suboptimality
    weighted A*, as production routers use on reroute passes: the
    returned path costs at most ``heuristic_weight`` times the optimum.
    That multiplicative guarantee is the only property the router (and
    the search window, see :func:`_window_bounds`) relies on; individual
    paths need not be optimal.

    Returns the node path including both endpoints, or ``None`` if
    unreachable within the expansion budget.  Results are bit-identical
    to :func:`astar_route_reference`; *window* exists so the equivalence
    is testable, not as a tuning knob.

    ``_hex`` is the premultiplied ``HEX_COST * node_cost`` list;
    PathFinder builds it once per cost vector so the four hex
    relaxations per expansion skip the multiply (the product is the same
    IEEE operation either way).  Built on the fly when omitted.
    """
    if src == dst:
        return [src]
    per_tile = (HEX_COST / HEX_REACH) * heuristic_weight
    dc, dr = divmod(dst, nrows)
    hex_col = HEX_REACH * nrows
    n_nodes = nrows * ncols
    if _hex is None:
        if isinstance(node_cost, np.ndarray):
            _hex = (HEX_COST * node_cost).tolist()
        else:
            _hex = [HEX_COST * c for c in node_cost]
    hexl = _hex
    # tabulated heuristic: ft[d] = d * per_tile for every Manhattan
    # distance on the grid — one multiply per table entry, not per push
    ft = [d * per_tile for d in range(nrows + ncols)]
    if window:
        col_lo, row_lo, col_hi, row_hi = _window_bounds(
            src, dst, nrows, ncols, node_cost, heuristic_weight
        )
    else:
        col_lo, row_lo, col_hi, row_hi = 0, 0, ncols - 1, nrows - 1

    arena = _arena()
    # Manhattan-distance tables (hr[r] = |r - dr|, hc[c] = |c - dc|):
    # built from range objects at C speed and memoized on the arena —
    # fanout makes target coordinates recur heavily within a route —
    # they turn every per-push distance computation into a list index.
    tables = arena.dist_tables
    hr = tables.get((nrows, dr))
    if hr is None:
        hr = list(range(dr, 0, -1))
        hr += range(nrows - dr)
        tables[(nrows, dr)] = hr
    hc = tables.get((ncols, dc))
    if hc is None:
        hc = list(range(dc, 0, -1))
        hc += range(ncols - dc)
        tables[(ncols, dc)] = hc
    gen = arena.acquire(n_nodes)
    g_arr = arena.g
    parent = arena.parent
    stamp = arena.stamp
    ngen = -gen  # closed marker: one stamp list, +gen open / -gen closed

    g_arr[src] = 0.0
    stamp[src] = gen
    heap: list[tuple[float, int]] = [(0.0, src)]
    push, pop = heappush, heappop
    hex_reach = HEX_REACH

    # The eight neighbor relaxations are unrolled, the SINGLE_COST==1.0
    # multiply is folded away (IEEE-exact), and each block reuses the
    # popped node's distance along its fixed axis.  Heap entries are bare
    # (f, node) pairs — cheapest to build and compare — because g, col
    # and row are all recoverable at first pop: any later improvement to
    # a node pushes a strictly smaller f that pops (and closes the node)
    # first, so ``g_arr[node]`` still holds this entry's g, and one
    # divmod per *expansion* (not per push) rebuilds the coordinates.
    expansions = 0
    while heap:
        _f, node = pop(heap)
        if node == dst:
            path = [dst]
            cursor = dst
            while cursor != src:
                cursor = parent[cursor]
                path.append(cursor)
            path.reverse()
            incr("route.astar.calls")
            incr("route.astar.expansions", expansions)
            return path
        if stamp[node] == ngen:
            continue
        stamp[node] = ngen
        expansions += 1
        if expansions > max_expansions:
            incr("route.astar.calls")
            incr("route.astar.expansions", expansions)
            return None
        g = g_arr[node]
        col, row = divmod(node, nrows)
        cdx = hc[col]
        rdx = hr[row]

        nrow = row + 1
        if nrow <= row_hi:
            nxt = node + 1
            s = stamp[nxt]
            if s != ngen:
                ng = g + node_cost[nxt]
                if s != gen or g_arr[nxt] > ng:
                    g_arr[nxt] = ng
                    stamp[nxt] = gen
                    parent[nxt] = node
                    push(heap, (ng + ft[cdx + hr[nrow]], nxt))
        nrow = row - 1
        if nrow >= row_lo:
            nxt = node - 1
            s = stamp[nxt]
            if s != ngen:
                ng = g + node_cost[nxt]
                if s != gen or g_arr[nxt] > ng:
                    g_arr[nxt] = ng
                    stamp[nxt] = gen
                    parent[nxt] = node
                    push(heap, (ng + ft[cdx + hr[nrow]], nxt))
        ncol = col + 1
        if ncol <= col_hi:
            nxt = node + nrows
            s = stamp[nxt]
            if s != ngen:
                ng = g + node_cost[nxt]
                if s != gen or g_arr[nxt] > ng:
                    g_arr[nxt] = ng
                    stamp[nxt] = gen
                    parent[nxt] = node
                    push(heap, (ng + ft[hc[ncol] + rdx], nxt))
        ncol = col - 1
        if ncol >= col_lo:
            nxt = node - nrows
            s = stamp[nxt]
            if s != ngen:
                ng = g + node_cost[nxt]
                if s != gen or g_arr[nxt] > ng:
                    g_arr[nxt] = ng
                    stamp[nxt] = gen
                    parent[nxt] = node
                    push(heap, (ng + ft[hc[ncol] + rdx], nxt))
        nrow = row + hex_reach
        if nrow <= row_hi:
            nxt = node + hex_reach
            s = stamp[nxt]
            if s != ngen:
                ng = g + hexl[nxt]
                if s != gen or g_arr[nxt] > ng:
                    g_arr[nxt] = ng
                    stamp[nxt] = gen
                    parent[nxt] = node
                    push(heap, (ng + ft[cdx + hr[nrow]], nxt))
        nrow = row - hex_reach
        if nrow >= row_lo:
            nxt = node - hex_reach
            s = stamp[nxt]
            if s != ngen:
                ng = g + hexl[nxt]
                if s != gen or g_arr[nxt] > ng:
                    g_arr[nxt] = ng
                    stamp[nxt] = gen
                    parent[nxt] = node
                    push(heap, (ng + ft[cdx + hr[nrow]], nxt))
        ncol = col + hex_reach
        if ncol <= col_hi:
            nxt = node + hex_col
            s = stamp[nxt]
            if s != ngen:
                ng = g + hexl[nxt]
                if s != gen or g_arr[nxt] > ng:
                    g_arr[nxt] = ng
                    stamp[nxt] = gen
                    parent[nxt] = node
                    push(heap, (ng + ft[hc[ncol] + rdx], nxt))
        ncol = col - hex_reach
        if ncol >= col_lo:
            nxt = node - hex_col
            s = stamp[nxt]
            if s != ngen:
                ng = g + hexl[nxt]
                if s != gen or g_arr[nxt] > ng:
                    g_arr[nxt] = ng
                    stamp[nxt] = gen
                    parent[nxt] = node
                    push(heap, (ng + ft[hc[ncol] + rdx], nxt))
    incr("route.astar.calls")
    incr("route.astar.expansions", expansions)
    return None


def astar_route_reference(
    src: int,
    dst: int,
    nrows: int,
    ncols: int,
    node_cost: np.ndarray,
    *,
    max_expansions: int = 200_000,
    heuristic_weight: float = 1.0,
) -> list[int] | None:
    """Original dict/heap A* — the equivalence oracle for
    :func:`astar_route` (same weighted-A* guarantee, see there)."""
    if src == dst:
        return [src]
    per_tile = (HEX_COST / HEX_REACH) * heuristic_weight
    dc, dr = divmod(dst, nrows)

    best_g: dict[int, float] = {src: 0.0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, src)]
    hex_col = HEX_REACH * nrows
    n_nodes = nrows * ncols
    closed: set[int] = set()

    expansions = 0
    while heap:
        _f, node = heappop(heap)
        if node == dst:
            path = [dst]
            cursor = dst
            while cursor != src:
                cursor = parent[cursor]
                path.append(cursor)
            path.reverse()
            return path
        if node in closed:
            continue
        closed.add(node)
        expansions += 1
        if expansions > max_expansions:
            return None
        g = best_g[node]

        col, row = divmod(node, nrows)
        neighbors = []
        if row + 1 < nrows:
            neighbors.append((node + 1, SINGLE_COST))
        if row > 0:
            neighbors.append((node - 1, SINGLE_COST))
        if col + 1 < ncols:
            neighbors.append((node + nrows, SINGLE_COST))
        if col > 0:
            neighbors.append((node - nrows, SINGLE_COST))
        if row + HEX_REACH < nrows:
            neighbors.append((node + HEX_REACH, HEX_COST))
        if row >= HEX_REACH:
            neighbors.append((node - HEX_REACH, HEX_COST))
        if node + hex_col < n_nodes:
            neighbors.append((node + hex_col, HEX_COST))
        if node >= hex_col:
            neighbors.append((node - hex_col, HEX_COST))

        for nxt, base in neighbors:
            if nxt in closed:
                continue
            ng = g + base * node_cost[nxt]
            old = best_g.get(nxt)
            if old is not None and old <= ng:
                continue
            best_g[nxt] = ng
            parent[nxt] = node
            ncol, nrow = divmod(nxt, nrows)
            h = (abs(ncol - dc) + abs(nrow - dr)) * per_tile
            heappush(heap, (ng + h, nxt))
    return None
