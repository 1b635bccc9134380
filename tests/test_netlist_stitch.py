"""Netlist stitching primitives (bridge_ports / merge_clock_nets)."""

import pytest

from repro.netlist import Design, DesignError, Port
from repro.netlist.stitch import bridge_ports, merge_clock_nets


def _component(name: str) -> Design:
    d = Design(name)
    d.new_cell("in_cell", "SLICE", luts=1, ffs=1)
    d.new_cell("out_cell", "SLICE", luts=1, ffs=1)
    d.connect("inner", "in_cell", ["out_cell"])
    d.connect("pin", None, ["in_cell"], width=16)
    d.connect("pout", "out_cell", [], width=16)
    d.add_port(Port("in_data", "in", "pin", width=16))
    d.add_port(Port("out_data", "out", "pout", width=16))
    d.connect("clk_net", None, ["in_cell", "out_cell"], is_clock=True)
    d.add_port(Port("clk", "in", "clk_net"))
    return d


def test_bridge_connects_driver_to_sinks():
    top = Design("top")
    pa = top.instantiate(_component("a"), prefix="u0")
    pb = top.instantiate(_component("b"), prefix="u1")
    net = bridge_ports(top, pa["out_data"], pb["in_data"])
    assert net.driver == "u0/out_cell"
    assert net.sinks == ["u1/in_cell"]
    assert net.width == 16
    # boundary nets consumed
    assert pa["out_data"] not in top.nets
    assert pb["in_data"] not in top.nets


def test_bridge_rejects_bad_nets():
    top = Design("top")
    pa = top.instantiate(_component("a"), prefix="u0")
    pb = top.instantiate(_component("b"), prefix="u1")
    with pytest.raises(DesignError, match="unknown boundary net"):
        bridge_ports(top, "ghost", pb["in_data"])
    # an input-port net has no driver: invalid as the out side
    with pytest.raises(DesignError, match="no driver"):
        bridge_ports(top, pb["in_data"], pa["in_data"])


def test_merge_clock_nets_unifies():
    top = Design("top")
    top.instantiate(_component("a"), prefix="u0")
    top.instantiate(_component("b"), prefix="u1")
    port = merge_clock_nets(top)
    clocks = [n for n in top.nets.values() if n.is_clock]
    assert len(clocks) == 1
    assert set(clocks[0].sinks) == {c.name for c in top.cells.values() if c.seq}
    assert top.ports[port.name].net == clocks[0].name


def test_full_chain_validates(tiny_device):
    top = Design("top")
    maps = [top.instantiate(_component(f"c{i}"), prefix=f"u{i}") for i in range(3)]
    for a, b in zip(maps, maps[1:]):
        bridge_ports(top, a["out_data"], b["in_data"])
    top.add_port(Port("in_data", "in", maps[0]["in_data"], width=16))
    top.add_port(Port("out_data", "out", maps[-1]["out_data"], width=16))
    merge_clock_nets(top)
    top.validate()
    assert len(top.modules()) == 3
