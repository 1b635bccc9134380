"""``Design.instantiate`` and the no-clone block assembly against the clone form.

``instantiate`` copies slots and prefixes names by concatenation, and
``generate_block`` renames its throw-away stage designs in place
(``Design.prefix_names``) and moves them in (``Design.adopt``).  Both
used to build every cell and net again through the constructors and a
per-endpoint rename function; that form is kept *here* as the oracle.
What must be equal: the order of the cell and net dicts, every slot of
every object, and the returned port map.
"""

from __future__ import annotations

import pytest

from repro.cnn import Conv2D, DFG, Dense, Flatten, Input, MaxPool2D, ReLU, group_components
from repro.netlist import Cell, Design, DesignError, Net, Port
from repro.netlist.stitch import bridge_ports, merge_clock_nets
from repro.synth import gen_conv, gen_fc, gen_pool, generate_block
from repro.synth import generator as generator_mod


def _instantiate_clone_form(top: Design, sub: Design, prefix: str, module=None):
    """``Design.instantiate`` as it was: one validated constructor call per
    cell and net, names through a per-endpoint function."""
    module = module or prefix
    rename = lambda n: f"{prefix}/{n}" if n is not None else None
    for cell in sub.cells.values():
        top.add_cell(Cell(
            rename(cell.name), cell.ctype, placement=cell.placement, locked=cell.locked,
            luts=cell.luts, ffs=cell.ffs, comb_depth=cell.comb_depth, seq=cell.seq,
            module=module,
        ))
    for net in sub.nets.values():
        out = Net(
            rename(net.name), rename(net.driver) if net.driver else None,
            [rename(s) for s in net.sinks],
            width=net.width, is_clock=net.is_clock, locked=net.locked,
        )
        out.routes = [list(r) if r is not None else None for r in net.routes]
        top.add_net(out)
    return {pname: rename(port.net) for pname, port in sub.ports.items()}


def _slots(obj) -> dict:
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def _same_design(a: Design, b: Design) -> None:
    assert list(a.cells) == list(b.cells)
    assert list(a.nets) == list(b.nets)
    assert list(a.ports) == list(b.ports)
    for name in a.cells:
        assert _slots(a.cells[name]) == _slots(b.cells[name])
        assert a.cells[name].name == name
    for name in a.nets:
        assert _slots(a.nets[name]) == _slots(b.nets[name])
        assert a.nets[name].name == name
    for name in a.ports:
        assert _slots(a.ports[name]) == _slots(b.ports[name])
    assert a.metadata == b.metadata


def _implemented(design: Design) -> Design:
    """Give some objects non-default physical state, so every slot is exercised."""
    for i, cell in enumerate(design.cells.values()):
        if i % 3 == 0:
            cell.placement = (i % 7, i % 11)
        cell.locked = i % 5 == 0
    for i, net in enumerate(design.nets.values()):
        if net.sinks and i % 2 == 0:
            net.routes = [[i, i + 1, i + 2] for _ in net.sinks]
            net.locked = i % 4 == 0
    return design


SUBS = {
    "conv": lambda: gen_conv(2, 8, 8, 3, 4, rom_weights=False, include_relu=True),
    "pool": lambda: gen_pool(4, 8, 8, 2),
    "fc": lambda: gen_fc(32, 8, rom_weights=True),
}


@pytest.mark.parametrize("kind", sorted(SUBS))
@pytest.mark.parametrize("module", [None, "tag"])
def test_instantiate_matches_the_clone_form(kind, module):
    sub = _implemented(SUBS[kind]())
    before = {name: _slots(cell) for name, cell in sub.cells.items()}
    got, want = Design("top"), Design("top")
    got.new_cell("resident", "SLICE")
    want.new_cell("resident", "SLICE")
    portmap = got.instantiate(sub, prefix="u0", module=module)
    assert portmap == _instantiate_clone_form(want, sub, "u0", module)
    _same_design(got, want)
    # copies, not the donor's objects: routes are fresh lists too
    assert {name: _slots(cell) for name, cell in sub.cells.items()} == before
    for name, net in sub.nets.items():
        copy = got.nets[f"u0/{name}"]
        assert copy is not net and copy.sinks is not net.sinks and copy.routes is not net.routes
        assert all(a is not b for a, b in zip(copy.routes, net.routes) if a is not None)
    # a second instance under the same prefix collides, as before
    with pytest.raises(DesignError, match="duplicate cell 'u0/"):
        got.instantiate(sub, prefix="u0")


def test_instantiate_drops_an_empty_driver_like_the_clone_form():
    sub = Design("sub")
    sub.new_cell("a", "SLICE")
    sub.add_net(Net("n", "", ["a"]))
    got, want = Design("t"), Design("t")
    got.instantiate(sub, "p")
    _instantiate_clone_form(want, sub, "p")
    assert got.nets["p/n"].driver is want.nets["p/n"].driver is None


@pytest.mark.parametrize("kind", sorted(SUBS))
@pytest.mark.parametrize("module", [None, "tag"])
def test_prefix_and_adopt_matches_the_clone_form(kind, module):
    donor, twin = _implemented(SUBS[kind]()), _implemented(SUBS[kind]())
    cells, nets = list(donor.cells.values()), list(donor.nets.values())
    got, want = Design("top"), Design("top")
    donor.prefix_names("s0_x", module)
    portmap = got.adopt(donor)
    assert portmap == _instantiate_clone_form(want, twin, "s0_x", module)
    _same_design(got, want)
    # moved, not copied: the very objects, and the donor keeps none
    assert not donor.cells and not donor.nets
    assert list(got.cells.values()) == cells and list(got.nets.values()) == nets
    # moving a second design in under the same names is refused whole
    again = SUBS[kind]()
    again.prefix_names("s0_x", module)
    with pytest.raises(DesignError, match="duplicate cell 's0_x/"):
        got.adopt(again)
    assert again.cells and len(got.cells) == len(cells)


def _generate_block_clone_form(comp, *, rom_weights=True) -> Design:
    """``generate_block`` as it was, cloning each stage design into the block."""
    g = generator_mod
    stages = [m for m in comp.members if m.kind in ("conv", "pool", "fc")]
    relu_after = g._relu_after_map(comp.members)
    top = Design(f"block_{comp.name}")
    prev_out = first_in = None
    weight_ins = []
    for idx, node in enumerate(stages):
        if node.kind == "conv":
            sub = g._conv_design(node, relu_after.get(node.name, False), rom_weights)
        elif node.kind == "pool":
            sub = g._pool_design(node, relu_after.get(node.name, False))
        else:
            sub = g._fc_design(node, relu_after.get(node.name, False), rom_weights)
        portmap = _instantiate_clone_form(top, sub, f"s{idx}_{node.name}")
        if first_in is None:
            first_in = portmap["in_data"]
        if "in_weights" in portmap:
            weight_ins.append(portmap["in_weights"])
        if prev_out is not None:
            bridge_ports(top, prev_out, portmap["in_data"], hint=f"blk{idx}")
        prev_out = portmap["out_data"]
    top.add_port(Port("in_data", "in", first_in, width=16, protocol="mem"))
    top.add_port(Port("out_data", "out", prev_out, width=16, protocol="mem"))
    for i, wnet in enumerate(weight_ins):
        top.add_port(Port(f"in_weights{i}" if i else "in_weights", "in", wnet,
                          width=16, protocol="mem"))
    merge_clock_nets(top)
    pf = max((m.layer.filters for m in stages if m.kind == "conv"), default=16)
    top.metadata.update(
        kind=comp.kind,
        params={"stages": [m.name for m in stages]},
        parallelism={"pf": min(pf, 48), "pk": 3},
        comb_depth=max(2, *(len(stages),)),
    )
    top.validate()
    return top


@pytest.mark.parametrize("rom_weights", [True, False])
def test_generate_block_matches_the_clone_form(rom_weights):
    dfg = DFG.sequential(
        "blk",
        [
            Input("in", shape=(1, 16, 16)),
            Conv2D("c1", filters=2, kernel=3, padding="same"),
            ReLU("r1"),
            Conv2D("c2", filters=2, kernel=3, padding="same"),
            ReLU("r2"),
            MaxPool2D("p", size=2),
            Flatten("fl"),
            Dense("d", units=4),
        ],
    )
    blocks = [c for c in group_components(dfg, "block") if c.kind == "conv_block"]
    assert blocks
    for comp in blocks:
        got = generate_block(comp, rom_weights=rom_weights)
        _same_design(got, _generate_block_clone_form(comp, rom_weights=rom_weights))
        assert all(cell.module == name.split("/")[0] for name, cell in got.cells.items())
