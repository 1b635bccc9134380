"""Netlist stitching primitives shared by the block generator, the flat
network synthesizer, and the RapidWright-style architecture composer.

``bridge_ports`` implements the paper's "create nets to connect the two
ports" step (Algorithm 1, lines 15-17): it splices a new top-level net
from the internal driver behind one component's output port to the
internal sinks behind the next component's input port, then removes the
now-dangling boundary nets.  ``prune_dangling_nets`` sweeps up any
boundary nets a composition left behind unbridged (DRC rule ``NET-001``
flags exactly these), so stitched designs come out DRC-clean.
"""

from __future__ import annotations

from ..obs.span import incr
from .design import Design, DesignError
from .net import WORD_BITS, Net, Port

__all__ = [
    "bridge_ports", "merge_clock_nets", "expose_weight_ports",
    "prune_dangling_nets",
]


def bridge_ports(
    top: Design, out_net_name: str, in_net_name: str, *, hint: str = "stitch"
) -> Net:
    """Connect an instantiated output-port net to an input-port net.

    Both arguments name nets inside *top* (as returned by
    :meth:`Design.instantiate` port maps).  Returns the new net.
    """
    try:
        driver, out_sinks, out_width = top.net_pins(out_net_name)
        _, in_sinks, in_width = top.net_pins(in_net_name)
    except KeyError as exc:
        raise DesignError(f"stitch: unknown boundary net {exc.args[0]!r}") from None
    if driver is None:
        raise DesignError(f"stitch: output boundary net {out_net_name} has no driver")
    if out_sinks:
        raise DesignError(f"stitch: output boundary net {out_net_name} already has sinks")
    name = f"{hint}__{out_net_name.replace('/', '.')}"
    net = top.connect(name, driver, in_sinks, width=max(out_width, in_width))
    top.remove_net(out_net_name)
    top.remove_net(in_net_name)
    incr("stitch.bridged")
    return net


def expose_weight_ports(top: Design, instance: str, portmap: dict[str, str], n_ports: int) -> int:
    """Promote an instance's streamed-weight inputs (the ``in_weights*``
    entries of its *portmap*) to top-level memory ports
    ``weights_<instance>_<i>``, numbered across the whole design from
    *n_ports*; returns the count so far."""
    for pname, nname in portmap.items():
        if pname.startswith("in_weights"):
            top.add_port(
                Port(f"weights_{instance}_{n_ports}", "in", nname, width=WORD_BITS, protocol="mem")
            )
            n_ports += 1
    return n_ports


def prune_dangling_nets(top: Design) -> list[str]:
    """Remove dangling boundary nets left behind by composition.

    A data net is pruned only when nothing can ever read it: it has no
    sinks *and* no port references it (an unbridged component output or
    a fully disconnected leftover).  Undriven nets *with* sinks are
    never touched — those are real errors for :meth:`Design.validate` /
    DRC rule ``NET-002`` to report, not residue to sweep under the rug.
    Returns the pruned net names.
    """
    port_nets = {p.net for p in top.ports.values()}
    pruned = [name for name in top.net_names_where(clock=False, sinkless=True)
              if name not in port_nets]
    for name in pruned:
        top.remove_net(name)
    if pruned:
        incr("stitch.pruned", len(pruned))
    return pruned


def merge_clock_nets(top: Design) -> Port:
    """Replace per-component clock nets with one global clock net + port
    (``clk_net``, ``clk``).

    Real flows route one global clock through the dedicated network; the
    per-component HD.CLK_SRC stubs exist only for OOC timing analysis.
    """
    top.remove_clock_nets()
    for port_name in [p.name for p in top.ports.values() if p.name.endswith("clk")]:
        # stale clock ports from instantiated components
        if not top.has_net(top.ports[port_name].net):
            del top.ports[port_name]
    net = top.add_net(top.seq_clock_net("clk_net"))
    incr("stitch.clock_sinks", net.lengths()[0])
    return top.add_port(Port("clk", "in", net.name, width=1))
