"""Netlist rules (NET-*): connectivity legality of the logical netlist.

Fatal rules mirror the structural invariants
:meth:`repro.netlist.Design.validate` has always enforced (their
messages are kept verbatim so existing ``except DesignError`` callers
and tests keep matching); the rest are new static checks that Vivado's
``report_drc`` would catch but a fail-fast validator never surfaced.
"""

from __future__ import annotations

from ..reporting import Severity
from .engine import rule

#: The per-net loops the columnar fatal rules (NET-002/003/008) replaced,
#: kept as their oracle: same ids, order and messages.
ORACLE = "tests.test_block_design.fatal_rules_per_object"


def _input_nets(design) -> set:
    return {p.net for p in design.ports.values() if p.direction == "in"}


def _output_nets(design) -> set:
    return {p.net for p in design.ports.values() if p.direction == "out"}


@rule("NET-001", category="netlist", severity="warning", title="dangling net")
def net_dangling(ctx, emit) -> None:
    """A non-clock net that drives nothing: no sinks and no output port.

    Stitching used to leave such boundary nets behind when a component
    port went unbridged; the stitcher now prunes them
    (:func:`repro.netlist.stitch.prune_dangling_nets`), so this firing
    on a flow output means a composition bug.
    """
    out_nets = _output_nets(ctx.design)
    for net in ctx.design.nets.values():
        if net.is_clock or net.sinks or net.name in out_nets:
            continue
        emit(
            "net", net.name,
            f"net {net.name} is dangling: no sinks and no output port reads it",
        )


@rule("NET-002", category="netlist", severity="fatal", title="undriven net")
def net_undriven(ctx, emit) -> None:
    """A non-clock net with neither a cell driver nor an input port."""
    input_nets = _input_nets(ctx.design)
    for name in ctx.design.net_names_where(driverless=True, clock=False):
        if name not in input_nets:
            emit("net", name, f"net {name} has no driver and no input port")


@rule("NET-003", category="netlist", severity="fatal", title="unknown endpoint")
def net_unknown_endpoint(ctx, emit) -> None:
    """A net referencing a cell name that does not exist in the design."""
    # One bulk lookup finds the offenders (normally none); a net inside a
    # placed block names only cells of its block by construction, and so
    # does the part of a merged clock net that stands for a block's cells.
    nets = ctx.design.loose_nets()
    blocks = ctx.design.blocks
    sinks = [net.sinks_outside(blocks) if blocks else net.sinks for net in nets]
    endpoints = [net.driver for net in nets if net.driver is not None]
    for named in sinks:
        endpoints += named
    unknown = ctx.design.unknown_cells(endpoints)
    if not unknown:
        return
    for net, named in zip(nets, sinks):
        if net.driver in unknown:
            emit("net", net.name,
                 f"net {net.name} driven by unknown cell {net.driver!r}")
        for sink in named:
            if sink in unknown:
                emit("net", net.name, f"net {net.name} sinks unknown cell {sink!r}")


@rule("NET-004", category="netlist", severity="error", title="multiply-driven net")
def net_multiply_driven(ctx, emit) -> None:
    """A net with more than one source: a cell driver plus an input port,
    or several input ports feeding the same net."""
    feeders: dict[str, list[str]] = {}
    for port in ctx.design.ports.values():
        if port.direction == "in":
            feeders.setdefault(port.net, []).append(port.name)
    for net_name, ports in feeders.items():
        net = ctx.design.nets.get(net_name)
        if net is None:
            continue  # NET-008's problem
        if net.driver is not None and not net.is_clock:
            emit("net", net_name,
                 f"net {net_name} multiply driven: cell {net.driver!r} and input "
                 f"port {ports[0]!r}")
        if len(ports) > 1:
            emit("net", net_name,
                 f"net {net_name} multiply driven by input ports {sorted(ports)}")


@rule("NET-005", category="netlist", severity="error", title="combinational loop")
def net_comb_loop(ctx, emit) -> None:
    """A cycle through combinational cells only (STA cannot order it)."""
    from ..timing.sta import combinational_loops

    if ctx.sta is not None:
        loops = ctx.sta.combinational_loops()
    else:
        loops = combinational_loops(ctx.design)
    for loop in loops:
        head = ", ".join(loop[:5])
        more = f" (+{len(loop) - 5} more)" if len(loop) > 5 else ""
        emit("cell", loop[0],
             f"combinational loop through {len(loop)} cell(s): {head}{more}")


@rule("NET-006", category="netlist", severity="warning", title="fanout ceiling")
def net_fanout(ctx, emit) -> None:
    """A data net fanning out beyond the ceiling (default 64 sinks) —
    a congestion and timing hazard on this fabric."""
    limit = ctx.max_fanout
    for net in ctx.design.nets.values():
        if not net.is_clock and len(net.sinks) > limit:
            emit("net", net.name,
                 f"net {net.name} fans out to {len(net.sinks)} sinks "
                 f"(ceiling {limit})")


@rule("NET-007", category="netlist", severity="warning", title="floating port")
def net_floating_port(ctx, emit) -> None:
    """A port whose net cannot carry its direction: an input port with no
    internal sinks, or an output port with no internal driver."""
    for port in ctx.design.ports.values():
        net = ctx.design.nets.get(port.net)
        if net is None:
            continue  # NET-008's problem
        if port.direction == "in" and not net.sinks:
            emit("port", port.name,
                 f"input port {port.name} floats: net {net.name} has no sinks")
        elif port.direction == "out" and net.driver is None:
            emit("port", port.name,
                 f"output port {port.name} floats: net {net.name} has no driver")


@rule("NET-008", category="netlist", severity="fatal", title="port references unknown net")
def net_unknown_port_net(ctx, emit) -> None:
    """A port pointing at a net name that does not exist."""
    for port in ctx.design.ports.values():
        if not ctx.design.has_net(port.net):
            emit("port", port.name,
                 f"port {port.name} references unknown net {port.net!r}")


# -- clock rules (CLK-*) -----------------------------------------------------


@rule("CLK-001", category="clock", severity="error", title="clock driven by logic")
def clk_driven_by_logic(ctx, emit) -> None:
    """A clock net with a fabric cell driver.  Clocks enter through ports
    onto the dedicated network (merge_clock_nets / HD.CLK_SRC stubs);
    logic-generated clocks would be unroutable on the clock tree.  Clock
    *buffers* (``BUFCE``, inserted by :func:`repro.eco.run_cts`) are part
    of that dedicated network and are legal clock drivers."""
    cells = ctx.design.cells
    for net in ctx.design.nets.values():
        if net.is_clock and net.driver is not None:
            driver = cells.get(net.driver)
            if driver is not None and driver.ctype == "BUFCE":
                continue
            emit("net", net.name,
                 f"clock net {net.name} is driven by logic cell {net.driver!r}")


@rule("CLK-002", category="clock", severity="warning", title="unclocked sequential cell")
def clk_unclocked_seq(ctx, emit) -> None:
    """A sequential cell that no clock net reaches (skipped entirely for
    designs with no clock nets at all, e.g. mid-construction netlists)."""
    clocked: set[str] = set()
    has_clock = False
    for net in ctx.design.nets.values():
        if net.is_clock:
            has_clock = True
            clocked.update(net.sinks)
    if not has_clock:
        return
    for cell in ctx.design.cells.values():
        if cell.seq and cell.name not in clocked:
            emit("cell", cell.name,
                 f"sequential cell {cell.name} is not reached by any clock net",
                 severity=Severity.WARNING)
