"""Native PathFinder core: ctypes binding and full-route driver.

``_route_core.c`` is a C port of the negotiation schedule
:meth:`repro.route.pathfinder.Router.route_reference` spells out in
Python — direct-path iteration 0, weighted-A* reroutes, shared-trunk
usage accounting, the constants of :mod:`repro.route.pathfinder` — with
two licensed shortcuts.  Each A* search runs over flat arena state
inside a window certified to hold every node the unwindowed search pops
(so it pops the same nodes: the ``route.astar.*`` counters agree), and
after a rip-up or a commit it refreshes the cost of only the nodes whose
occupancy changed (the others would recompute to the value they hold).
It is compiled on demand through
:mod:`repro._native` (IEEE-strict flags, content-hash cache) and is
bit-identical to the reference (``tests/test_property_route.py``
asserts it under Hypothesis).  :meth:`Router.route` runs it whenever it
loads; where it cannot, the reference runs instead — same bytes out,
slower (:mod:`repro.route.pathfinder` says by how much).

The C session *borrows* numpy buffers for one pass, so nothing
node-sized is allocated or copied per pass or per iteration: the
router's occupancy (which the pass updates in place; the device's
:class:`~repro.fabric.interconnect.RoutingGraph` lends it to the router,
which keeps it for its next pass), the region mask, and from the graph
its float capacity (read only, shared by every pass) and one pooled
:class:`~repro.fabric.interconnect.RouteBuffers` set — history, cost
tables, A* arena — checked out for the pass and returned after it.  A
set serves one pass at a time and an occupancy one router, so threads
routing on one device (each with its own router) never share one; the
core writes only the entries a pass needs and leaves the set as the
next pass expects it (history zero, the arena's generation counter
carried on).  What is the session's own — the
per-net usage hash, the committed paths — is sized to the pass's
connections.  The overuse count starts from the router's and follows
the nodes each commit and rip-up changes, so no step scans every node
unless an A* iteration runs.  One ``route_iterate`` call runs one
negotiation iteration: the Python loop here keeps the same stage spans,
telemetry, and stop condition as the reference, so trace trees and
metric totals match.  The driver never materializes per-target
objects; paths come back as one flat CSR at the end, with their
wirelength.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from .._native import build_library
from ..fabric.interconnect import node_list
from ..obs.span import incr, sample, span

__all__ = ["native_available", "route_native"]

#: Reference implementation this tier is asserted bit-identical to
#: (the oracle contract; checked by ORC lint rules).
ORACLE = "repro.route.pathfinder.Router.route_reference"

_SOURCE = Path(__file__).with_name("_route_core.c")


@functools.cache
def _lib():
    """The route core's CDLL, or ``None`` when it is unavailable; built and
    loaded once."""
    lib = build_library(_SOURCE, "route_core")
    if lib is not None:
        I = ctypes.c_int64
        D = ctypes.c_double
        P = ctypes.c_void_p
        lib.route_new.restype = P
        lib.route_new.argtypes = (
            [I, I, I, I]        # n_nodes, nrows, ncols, n_targets
            + [P] * 4           # src, dst, width, gid
            + [P] * 3           # occupancy, capacity, history
            + [P, I]            # blocked, has_blocked
            + [P] * 6           # cost, hex, g, parent, stamp, state
            + [P, P, I]         # pre_keys, pre_counts, n_pre
            + [D] * 4           # pres_fac_init, mult, hist_fac, weight
            + [I]               # max_expansions
        )
        lib.route_iterate.restype = None
        lib.route_iterate.argtypes = [P, I, P]
        lib.route_paths_size.restype = I
        lib.route_paths_size.argtypes = [P]
        lib.route_paths_fill.restype = I
        lib.route_paths_fill.argtypes = [P, P, P]
        lib.route_free.restype = None
        lib.route_free.argtypes = [P]
    return lib


def native_available() -> bool:
    """True when the C route core compiled (or was cached) and loaded."""
    return _lib() is not None


def _ptr(a: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(a.ctypes.data)


def _collect_targets(design, nrows, ncols):
    """Array-form target collection, identical in order and error
    behavior to the setup loop of :meth:`Router.route_reference` (the
    same ``RoutingError`` / ``IndexError`` at the same first offender;
    a stable argsort on the same keys equals its stable ``list.sort``),
    but without materializing ``_Target`` objects.

    Returns ``(nets, gid, sink_idx, width, src, dst)`` where *nets*
    maps a net group id to its net and the five arrays are in the
    short-connections-first schedule order.  Each net's targets are
    collected contiguously, so group ids are assigned on net change —
    no name lookups.  Only nets that exist as objects are walked: a
    placed block's connections are all routed, and its cells are
    looked up by name (:meth:`Design.placement_of`) without being built.
    """
    from .pathfinder import RoutingError

    placement_of = design.placement_of
    nets: list = []
    gids: list[int] = []
    sink_idx: list[int] = []
    widths: list[int] = []
    coords: list[tuple[int, int, int, int]] = []
    for net in design.loose_nets():
        if net.is_clock or net.driver is None or net.locked:
            continue
        driver = placement_of(net.driver)
        gid = -1
        for i, sink_name in enumerate(net.sinks):
            if net.routes[i] is not None:
                continue
            sink = placement_of(sink_name)
            if driver is None or sink is None:
                raise RoutingError(
                    f"net {net.name}: cannot route with unplaced endpoints"
                )
            if gid < 0:
                gid = len(nets)
                nets.append(net)
            gids.append(gid)
            sink_idx.append(i)
            widths.append(net.width)
            coords.append(driver + sink)
    if not coords:
        empty = np.empty(0, dtype=np.int64)
        return nets, empty, empty, empty, empty, empty
    arr = np.asarray(coords, dtype=np.int64)  # columns: sc, sr, dc, dr
    cols = arr[:, 0::2]
    rows = arr[:, 1::2]
    ok = (cols >= 0) & (cols < ncols) & (rows >= 0) & (rows < nrows)
    if not ok.all():
        t, e = (int(v) for v in np.argwhere(~ok)[0])
        raise IndexError(
            f"tile ({int(arr[t, 2 * e])},{int(arr[t, 2 * e + 1])}) "
            "outside device"
        )
    src = arr[:, 0] * nrows + arr[:, 1]
    dst = arr[:, 2] * nrows + arr[:, 3]
    # Short connections first: they establish uncontested fabric use.
    key = np.abs(arr[:, 0] - arr[:, 2]) + np.abs(arr[:, 1] - arr[:, 3])
    order = np.argsort(key, kind="stable")
    return (
        nets,
        np.ascontiguousarray(np.asarray(gids, dtype=np.int64)[order]),
        np.ascontiguousarray(np.asarray(sink_idx, dtype=np.int64)[order]),
        np.ascontiguousarray(np.asarray(widths, dtype=np.int64)[order]),
        np.ascontiguousarray(src[order]),
        np.ascontiguousarray(dst[order]),
    )


def route_native(router, design, blocked):
    """Run the full negotiation through the C core; bit-identical to
    :meth:`Router.route_reference`.

    Called by :meth:`Router.route` when the core loaded; *blocked* is
    the caller's region mask (or ``None``).
    """
    from .maze import MAX_EXPANSIONS
    from .pathfinder import (
        _REROUTE_WEIGHT, HIST_FAC, MAX_ITERS, PRES_FAC_INIT, PRES_FAC_MULT,
    )

    lib = _lib()
    if lib is None:
        raise RuntimeError("native route core unavailable")
    graph = router.graph
    nrows, ncols = router.device.nrows, router.device.ncols
    n_nodes = graph.n_nodes

    with span("route/setup"):
        occupancy, net_usage, preexisting, overused = router.occupancy(design)
        nets, gid_a, sink_a, width_a, src_a, dst_a = _collect_targets(
            design, nrows, ncols
        )
    n = int(src_a.size)

    # preexisting per-net usage counts as (gid * n_nodes + node) -> count
    pre_keys_l: list[int] = []
    pre_counts_l: list[int] = []
    for g, net in enumerate(nets):
        usage = net_usage.get(net.name)
        if usage:
            base = g * n_nodes
            for node, count in usage.items():
                pre_keys_l.append(base + node)
                pre_counts_l.append(count)
    pre_keys = np.asarray(pre_keys_l, dtype=np.int64)
    pre_counts = np.asarray(pre_counts_l, dtype=np.int64)

    if blocked is not None:
        blocked_a = np.ascontiguousarray(blocked, dtype=np.uint8)
        has_blocked = 1
    else:
        blocked_a = np.zeros(1, dtype=np.uint8)
        has_blocked = 0

    out = np.zeros(5, dtype=np.int64)
    iterations = 0
    wirelength = 0
    with router.graph.buffers() as buf:
        buf.state[1] = overused
        history, *work = buf.addresses
        sess = lib.route_new(
            n_nodes, nrows, ncols, n,
            _ptr(src_a), _ptr(dst_a), _ptr(width_a), _ptr(gid_a),
            _ptr(occupancy), _ptr(graph.capacity_f), history,
            _ptr(blocked_a), has_blocked, *work,
            _ptr(pre_keys), _ptr(pre_counts), int(pre_keys.size),
            PRES_FAC_INIT, PRES_FAC_MULT, HIST_FAC, _REROUTE_WEIGHT, MAX_EXPANSIONS,
        )
        try:
            for iteration in range(MAX_ITERS):
                iterations = iteration + 1
                with span("route/iterate"):
                    lib.route_iterate(sess, iteration, _ptr(out))
                    if out[3]:
                        incr("route.astar.calls", int(out[3]))
                        incr("route.astar.expansions", int(out[4]))
                n_over = int(out[2])
                incr("route.ripup", int(out[1]))
                sample("route.overuse", n_over, iteration=iterations)
                if n_over == 0:
                    break
            total = int(lib.route_paths_size(sess))
            flat = np.empty(max(total, 1), dtype=np.int64)
            offs = np.empty(n + 1, dtype=np.int64)
            offs[0] = 0
            if n:
                wirelength = int(lib.route_paths_fill(sess, _ptr(flat), _ptr(offs)))
        finally:
            lib.route_free(sess)
        overused = int(buf.state[1])
        if iterations > 1:          # A* wrote every node's cost: give the pages back
            buf.release()

    with span("route/commit"):
        routed = 0
        if n:
            flat_l = node_list(flat[:total])
            offs_l = offs.tolist()
            gid_l = gid_a.tolist()
            sink_l = sink_a.tolist()
            for j in range(n):
                o0 = offs_l[j]
                o1 = offs_l[j + 1]
                if o1 > o0:
                    nets[gid_l[j]].routes[sink_l[j]] = flat_l[o0:o1]
                    routed += 1

    return router._result(n, routed, iterations, wirelength, overused, preexisting)
