"""A* maze expansion over the implicit grid routing graph.

Nodes are tiles numbered column-major (``node = col * nrows + row``);
each has up to eight neighbours: four single wires one tile away and
four hex wires :data:`~repro.fabric.interconnect.HEX_REACH` tiles away.
Costs combine the wire base cost with negotiated-congestion multipliers
supplied by the caller (PathFinder).

This is the readable search: the compiled router (``_route_core.c``)
runs the same search with flat arena state and a certified search
window, and is asserted to pop exactly the nodes this one pops.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from ..fabric.interconnect import HEX_COST, HEX_REACH, SINGLE_COST
from ..obs.span import incr

__all__ = ["astar_route", "direct_path"]

#: Nodes one A* search may expand before it gives up (returns ``None``).
MAX_EXPANSIONS = 200_000


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


def astar_route(
    src: int,
    dst: int,
    nrows: int,
    ncols: int,
    node_cost: np.ndarray,
    *,
    heuristic_weight: float = 1.0,
) -> list[int] | None:
    """Shortest path from *src* to *dst* under per-node entry costs.

    ``node_cost[n]`` is the congestion-adjusted multiplier for entering
    node *n* (>= 1); an ndarray works, but a flat Python list (PathFinder
    converts once per iteration) keeps the loop in native floats.
    With ``heuristic_weight == 1`` the heuristic
    (cheapest cost per tile times Manhattan distance) is admissible and
    the result is optimal.  With ``heuristic_weight > 1`` the heuristic
    is deliberately *inadmissible* — this is bounded-suboptimality
    weighted A*, as production routers use on reroute passes: the
    returned path costs at most ``heuristic_weight`` times the optimum.
    That multiplicative guarantee is the only property the router (and
    the compiled core's search window) relies on; individual paths need
    not be optimal.

    Returns the node path including both endpoints, or ``None`` if
    unreachable in :data:`MAX_EXPANSIONS` expansions.  Open-list entries
    are ``(f, node)`` pairs, so ties on ``f`` pop the lower node id first.
    """
    if src == dst:
        incr("route.astar.calls")
        return [src]
    per_tile = (HEX_COST / HEX_REACH) * heuristic_weight
    dc, dr = divmod(dst, nrows)
    hex_col = HEX_REACH * nrows
    n_nodes = nrows * ncols

    best_g: dict[int, float] = {src: 0.0}
    parent: dict[int, int] = {}
    closed: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, src)]
    path = None
    expansions = 0
    while heap:
        _f, node = heappop(heap)
        if node == dst:
            path = [dst]
            while node != src:
                node = parent[node]
                path.append(node)
            path.reverse()
            break
        if node in closed:
            continue
        closed.add(node)
        expansions += 1
        if expansions > MAX_EXPANSIONS:
            break
        g = best_g[node]

        col, row = divmod(node, nrows)
        for on_grid, nxt, base in (
            (row + 1 < nrows, node + 1, SINGLE_COST),
            (row > 0, node - 1, SINGLE_COST),
            (col + 1 < ncols, node + nrows, SINGLE_COST),
            (col > 0, node - nrows, SINGLE_COST),
            (row + HEX_REACH < nrows, node + HEX_REACH, HEX_COST),
            (row >= HEX_REACH, node - HEX_REACH, HEX_COST),
            (node + hex_col < n_nodes, node + hex_col, HEX_COST),
            (node >= hex_col, node - hex_col, HEX_COST),
        ):
            if not on_grid or nxt in closed:
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
    incr("route.astar.calls")
    incr("route.astar.expansions", expansions)
    return path
