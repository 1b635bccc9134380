"""Routing rules (RTE-*): legality of committed routes.

These run only when a device is supplied (the routing graph is derived
on demand).  Occupancy accounting reuses the router's own
:func:`repro.route.pathfinder.routed_occupancy` — trunk wires shared by
branches of one net are charged once, endpoint tiles (cell pins) never —
so DRC and PathFinder agree exactly on what "overused" means.
"""

from __future__ import annotations

from ..reporting import Severity
from .engine import rule


@rule("RTE-001", category="routing", severity="info", title="unrouted net")
def rte_unrouted(ctx, emit) -> None:
    """A data connection with no committed route.  Informational before
    the final routing pass, an error after it (``require_routed``)."""
    severity = Severity.ERROR if ctx.require_routed else Severity.INFO
    for net in ctx.design.nets.values():
        if net.is_clock or net.driver is None or not net.sinks:
            continue
        missing = sum(1 for r in net.routes if r is None)
        if missing == len(net.sinks):
            emit("net", net.name,
                 f"net {net.name} is unrouted ({len(net.sinks)} sink(s))",
                 severity=severity)
        elif missing:
            emit("net", net.name,
                 f"net {net.name} is partially routed "
                 f"({missing}/{len(net.sinks)} sinks missing)",
                 severity=severity)


@rule("RTE-002", category="routing", severity="error", title="wire overuse")
def rte_overuse(ctx, emit) -> None:
    """More net-width charged into an INT tile than it has wires."""
    import numpy as np

    from ..netlist.design import Design
    from ..route.pathfinder import routed_occupancy

    graph = ctx.graph
    n_nodes = graph.n_nodes
    # Nets whose paths leave the grid are RTE-003's problem; excluding
    # them keeps the occupancy accounting indexable.
    bad = {
        net.name
        for net in ctx.design.nets.values()
        if not net.is_clock and net.driver is not None
        and any(p and any(not 0 <= n < n_nodes for n in p) for p in net.routes)
    }
    design = ctx.design
    if bad:
        design = Design(ctx.design.name)
        design.nets = {k: n for k, n in ctx.design.nets.items() if k not in bad}
    occupancy, _usage, _n = routed_occupancy(design, graph)
    over = np.flatnonzero(occupancy > graph.capacity)
    nrows = ctx.device.nrows
    for node in over:
        node = int(node)
        col, row = divmod(node, nrows)
        emit("site", f"({col},{row})",
             f"wire overuse at tile ({col},{row}): {occupancy[node]:.0f} used, "
             f"capacity {int(graph.capacity[node])}",
             detail=f"node {node}")


@rule("RTE-003", category="routing", severity="error", title="discontinuous route")
def rte_discontinuous(ctx, emit) -> None:
    """A committed path with an illegal hop: consecutive nodes that no
    single or hex wire connects, or a node outside the device grid."""
    graph = ctx.graph
    n_nodes = graph.n_nodes
    for net in ctx.design.nets.values():
        if net.is_clock:
            continue
        for i, path in enumerate(net.routes):
            if not path:
                continue
            bad = [n for n in path if not 0 <= n < n_nodes]
            if bad:
                emit("net", net.name,
                     f"net {net.name} sink {i}: route leaves the device "
                     f"(node {bad[0]})", detail=f"sink {i}")
                continue
            for a, b in zip(path, path[1:]):
                if not graph.is_wire_edge(a, b):
                    emit("net", net.name,
                         f"net {net.name} sink {i}: discontinuous route, no wire "
                         f"connects node {a} to {b}", detail=f"sink {i}")
                    break


@rule("RTE-004", category="routing", severity="error", title="route endpoint mismatch")
def rte_endpoints(ctx, emit) -> None:
    """A committed path that does not start at the net's driver pin or end
    at the sink pin it claims to serve — a route touching nodes outside
    the net's pin set."""
    graph = ctx.graph
    cells = ctx.design.cells
    for net in ctx.design.nets.values():
        if net.is_clock or net.driver is None:
            continue
        driver = cells.get(net.driver)
        for i, path in enumerate(net.routes):
            if not path:
                continue
            sink = cells.get(net.sinks[i]) if i < len(net.sinks) else None
            if driver is None or sink is None:
                continue  # NET-003's problem
            if not driver.is_placed or not sink.is_placed:
                emit("net", net.name,
                     f"net {net.name} sink {i}: routed but an endpoint cell is "
                     f"unplaced", detail=f"sink {i}")
                continue
            src_node = graph.node_id(*driver.placement)
            dst_node = graph.node_id(*sink.placement)
            if path[0] != src_node:
                emit("net", net.name,
                     f"net {net.name} sink {i}: route starts at node {path[0]}, "
                     f"driver pin is node {src_node}", detail=f"sink {i}")
            if path[-1] != dst_node:
                emit("net", net.name,
                     f"net {net.name} sink {i}: route ends at node {path[-1]}, "
                     f"sink pin is node {dst_node}", detail=f"sink {i}")
