"""Shared-component (Q-CLE) architecture mode."""

import math

import pytest

from repro.cnn import Conv2D, DFG, Dense, Flatten, Input, MaxPool2D, ReLU, group_components, lenet5
from repro.rapidwright import ComponentDatabase, PreImplementedFlow
from repro.rapidwright.stitcher import unique_components


def _repnet() -> DFG:
    layers = [Input("in", shape=(2, 16, 16))]
    for i in range(1, 4):
        layers.append(Conv2D(f"c{i}", filters=2, kernel=3, padding="same"))
        layers.append(ReLU(f"r{i}"))
    layers += [MaxPool2D("p", size=2), Flatten("f"), Dense("d", units=4)]
    return DFG.sequential("repnet", layers)


@pytest.fixture(scope="module")
def pair(small_device):
    net = _repnet()
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    replicated = flow.run(net)
    shared = flow.run(net, database=replicated.extras["database"], share_components=True)
    return net, replicated, shared


def test_shared_uses_fewer_resources(pair):
    _, replicated, shared = pair
    ur = replicated.design.resource_usage()
    us = shared.design.resource_usage()
    for key in ("LUT", "FF", "DSP48E2"):
        assert us.get(key, 0) < ur.get(key, 0), key


def test_shared_has_one_engine_per_signature(pair):
    net, _, shared = pair
    comps = group_components(net, "layer")
    unique = {c.signature for c in comps}
    meta = shared.design.metadata
    assert meta["shared"] is True
    assert meta["n_physical"] == len(unique)
    assert meta["passes"] == len(comps)
    # modules: one per unique component + the scheduler
    assert len(shared.design.modules()) == len(unique) + 1
    assert "scheduler" in shared.design.modules()


def test_shared_design_is_legal_and_routed(small_device, pair):
    _, _, shared = pair
    shared.design.validate(small_device)
    assert shared.route.failed == 0
    assert shared.design.is_fully_routed
    assert shared.fmax_mhz > 0


def test_shared_star_stitching(pair):
    _, _, shared = pair
    stitch = shared.extras["stitch"]
    # two stitch nets (to/from the scheduler) per physical engine
    n_engines = shared.design.metadata["n_physical"]
    assert len(stitch.stitch_nets) == 2 * n_engines
    sched = next(r for r in stitch.records if r.name == "scheduler")
    assert sched.fmax_ooc_mhz > 0


def test_shared_deterministic(small_device):
    net = _repnet()
    results = []
    for _ in range(2):
        flow = PreImplementedFlow(small_device, component_effort="low", seed=4)
        results.append(flow.run(net, share_components=True))
    assert results[0].fmax_mhz == pytest.approx(results[1].fmax_mhz)


# -- the scheduler is a library component; the star is compose's ---------------------------


def _spy_on_compose(monkeypatch):
    """Record every ``compose`` call of the flow as ``(args, kwargs, stitch,
    n_blocks)``: the top's placed-block count as ``compose`` returned it,
    before anything routes or reads it."""
    import repro.rapidwright.flow as flow_module

    calls, real = [], flow_module.compose

    def spy(*args, **kwargs):
        stitch = real(*args, **kwargs)
        calls.append((args, kwargs, stitch, len(stitch.top.blocks)))
        return stitch

    monkeypatch.setattr(flow_module, "compose", spy)
    return calls


def test_scheduler_is_built_offline_once(small_device, monkeypatch):
    """The first shared run builds the scheduler into the database and
    counts it as offline work; the second pre-implements nothing."""
    import repro.rapidwright.explore
    import repro.rapidwright.ooc
    from repro.netlist.codec import encode_design

    net = _repnet()
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    db = flow.run(net).extras["database"]
    n_words = max(math.prod(c.out_shape) for c in group_components(net, "layer"))
    assert not db.has(("memctrl", n_words))
    first = flow.run(net, database=db, share_components=True)
    assert first.extras["offline_s"] > 0.0
    assert db.has(("memctrl", n_words))
    assert db.fmax_of(("memctrl", n_words)) == next(
        r.fmax_ooc_mhz for r in first.extras["stitch"].records if r.name == "scheduler")

    def refuse(*args, **kwargs):
        raise AssertionError("preimplement called on a built database")

    monkeypatch.setattr(repro.rapidwright.ooc, "preimplement", refuse)
    monkeypatch.setattr(repro.rapidwright.explore, "preimplement", refuse)
    second = flow.run(net, database=db, share_components=True)
    assert second.extras["offline_s"] == 0.0
    assert encode_design(second.design) == encode_design(first.design)


def test_alternating_weights_build_the_scheduler_once(small_device):
    """The scheduler's bytes do not depend on the weight style, and a
    record already in the database is used whatever built it: shared
    runs that alternate ``rom_weights`` pre-implement nothing after the
    first."""
    db = ComponentDatabase(small_device)
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    offline = [flow.run(lenet5(), rom_weights=rom, database=db,
                        share_components=True).extras["offline_s"]
               for rom in (True, False, True, False)]
    assert offline[0] > 0.0 and offline[1:] == [0.0, 0.0, 0.0]
    assert len(db) == len(unique_components(group_components(lenet5(), "layer"))) + 1


def test_shared_top_is_block_backed(small_device, monkeypatch, pair):
    """Right after ``compose`` the shared top holds one placed block per
    physical engine plus the scheduler's: the star edits no object."""
    net, _, shared = pair
    calls = _spy_on_compose(monkeypatch)
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    again = flow.run(net, database=shared.extras["database"], share_components=True)
    ((_, kwargs, _, n_blocks),) = calls
    assert kwargs["hub"].name == "scheduler"
    assert n_blocks == again.design.metadata["n_physical"] + 1


def test_library_answers_the_scheduler(small_device, tmp_path):
    """A fresh database on the same directory reads the scheduler's file
    like every other component's."""
    from repro.netlist.codec import encode_design
    from repro.obs import Tracer
    from repro.rapidwright import ComponentDatabase

    net = _repnet()
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    cold = flow.run(net, database=ComponentDatabase(small_device, directory=tmp_path),
                    share_components=True)
    assert cold.extras["offline_s"] > 0.0
    assert len(list(tmp_path.iterdir())) == len(cold.extras["database"])
    tracer = Tracer()
    with tracer.activate():
        warm = flow.run(net, database=ComponentDatabase(small_device, directory=tmp_path),
                        share_components=True)
    assert warm.extras["offline_s"] == 0.0
    # every record from its file: the components, then the scheduler
    n_words = max(math.prod(c.out_shape) for c in group_components(net, "layer"))
    assert warm.extras["database"].has(("memctrl", n_words))
    assert tracer.metrics.counter("library.hit").value == len(warm.extras["database"])
    assert encode_design(warm.design) == encode_design(cold.design)


def test_compose_star_equals_compose_reference(big_device, monkeypatch):
    """The declared oracle covers the star: ``compose(hub=)`` and
    ``compose_reference(hub=)`` build the same top, records and nets."""
    from repro.cnn import lenet5
    from repro.netlist import design_to_dict
    from repro.rapidwright.stitcher import compose, compose_reference

    net = lenet5()
    flow = PreImplementedFlow(big_device, component_effort="low", seed=0)
    calls = _spy_on_compose(monkeypatch)
    flow.run(net, share_components=True)
    ((args, kwargs, _, _),) = calls
    assert kwargs["hub"] is not None
    moved = compose(*args, **kwargs)
    cloned = compose_reference(*args, **kwargs)
    assert design_to_dict(moved.top) == design_to_dict(cloned.top)
    assert moved.records == cloned.records
    assert moved.stitch_nets == cloned.stitch_nets
    assert len(moved.stitch_nets) == 2 * moved.top.metadata["n_physical"]


# -- compose(hub=) moves each instance in; the cloning composition is its oracle -------------


def _compose_shared_by_cloning(name, components, database, device, anchors, *, hub):
    """``compose(hub=)`` by copies: a plain fetch plus an ``instantiate``
    clone per engine, the ``relocate_reference`` oracle plus a clone for
    the scheduler.  Same top design, three copies of everything.
    (Streamed weight inputs become top-level memory ports, as in
    the chain.)"""
    from repro.netlist import Design
    from repro.netlist.net import Port
    from repro.netlist.stitch import merge_clock_nets, prune_dangling_nets
    from repro.rapidwright.module import relocate_reference
    from repro.rapidwright.stitcher import StitchRecord, StitchResult

    def box(pblock):
        return [pblock.col0, pblock.row0, pblock.col1, pblock.row1]

    unique = {}
    for comp in components:
        unique.setdefault(comp.signature, comp)
    top = Design(name)
    result = StitchResult(top=top)
    footprints = {}
    assert hub.signature[0] == "memctrl"
    scheduler = database.get(hub.signature)      # ("memctrl", n_words): a library record
    sched = relocate_reference(scheduler, device, anchors["scheduler"])
    footprints["scheduler"] = box(sched.pblock)
    sched_map = top.instantiate(sched, prefix="scheduler", module="scheduler")
    sched_entry = top.nets[sched_map["in_data"]].sinks[0]
    sched_exit = top.nets[sched_map["out_data"]].driver
    del top.nets[sched_map["in_data"]]
    del top.nets[sched_map["out_data"]]
    result.records.append(StitchRecord(
        "scheduler", hub.signature, anchors["scheduler"],
        sched.metadata.get("ooc", {}).get("fmax_mhz", 0.0), len(sched.cells)))
    n_weight_ports = 0
    for comp in unique.values():
        anchor = anchors[comp.name]
        module = database.fetch(comp.signature, anchor, device=device)
        footprints[comp.name] = box(module.pblock)
        portmap = top.instantiate(module, prefix=comp.name, module=comp.name)
        result.records.append(StitchRecord(
            comp.name, comp.signature, anchor,
            module.metadata.get("ooc", {}).get("fmax_mhz", 0.0), len(module.cells)))
        out_net, in_net = top.nets[portmap["out_data"]], top.nets[portmap["in_data"]]
        to_sched = top.connect(
            f"share__{comp.name}__to_sched", out_net.driver, [sched_entry], width=16)
        from_sched = top.connect(
            f"share__{comp.name}__from_sched", sched_exit, list(in_net.sinks), width=16)
        result.stitch_nets += [to_sched.name, from_sched.name]
        del top.nets[portmap["out_data"]]
        del top.nets[portmap["in_data"]]
        for pname, nname in portmap.items():
            if pname.startswith("in_weights"):
                top.add_port(Port(f"weights_{comp.name}_{n_weight_ports}", "in", nname,
                                  width=16, protocol="mem"))
                n_weight_ports += 1
    ext_in = top.connect("ext_in", None, [sched_entry], width=16)
    ext_out = top.connect("ext_out", sched_exit, [], width=16)
    top.add_port(Port("in_data", "in", ext_in.name, width=16, protocol="mem"))
    top.add_port(Port("out_data", "out", ext_out.name, width=16, protocol="mem"))
    merge_clock_nets(top)
    top.metadata.update(
        stitched=True, shared=True, n_components=len(components),
        n_physical=len(unique), passes=len(components),
        slowest_component_mhz=result.slowest_component_mhz,
        anchors={r.name: [r.anchor[0], r.anchor[1]] for r in result.records},
        footprints=footprints,
    )
    result.pruned_nets = prune_dangling_nets(top)
    top.validate(device)
    return result


@pytest.mark.parametrize("model", ["lenet5", "vgg16"])
def test_compose_shared_equals_the_cloning_composition(big_device, monkeypatch, model):
    import repro.rapidwright.flow as flow_module
    from repro.cnn import lenet5, vgg16
    from repro.netlist import design_to_dict

    net, kwargs = {
        "lenet5": (lenet5(), {}),
        # streamed weights (ROM weights do not fit the part): every engine's
        # ``in_weights*`` inputs are promoted, so the final validate passes
        "vgg16": (vgg16(), {"granularity": "block", "rom_weights": False}),
    }[model]
    flow = PreImplementedFlow(big_device, component_effort="low", seed=0)
    moved = flow.run(net, share_components=True, **kwargs)
    monkeypatch.setattr(flow_module, "compose", _compose_shared_by_cloning)
    cloned = flow.run(net, database=moved.extras["database"], share_components=True, **kwargs)
    assert design_to_dict(moved.design) == design_to_dict(cloned.design)
    assert moved.extras["stitch"].records == cloned.extras["stitch"].records
    assert moved.fmax_mhz == cloned.fmax_mhz


def test_shared_build_with_streamed_weights_exposes_weight_ports(big_device):
    """Regression: the shared composition never promoted ``in_weights*``, so a
    streamed-weights shared build died in its final ``validate`` with
    ``[NET-002] net comp0_conv1/port_in_weights_270 has no driver and no
    input port``.  They become ``weights_<comp>_<i>`` memory ports, as in
    ``compose``."""
    from repro.cnn import lenet5

    net = lenet5()
    flow = PreImplementedFlow(big_device, component_effort="low", seed=0)
    shared = flow.run(net, rom_weights=False, share_components=True)
    shared.design.validate(big_device)
    engines: dict = {}
    for comp in group_components(net, "layer"):
        engines.setdefault(comp.signature, comp.name)     # one physical engine per signature
    weight_ports = [p for p in shared.design.ports.values() if p.name.startswith("weights_")]
    assert weight_ports and all(
        p.direction == "in" and p.protocol == "mem" and p.width == 16 for p in weight_ports)
    # numbered across the design, each on an engine's own undriven boundary net
    assert [int(p.name.rsplit("_", 1)[1]) for p in weight_ports] == list(range(len(weight_ports)))
    for port in weight_ports:
        owner = port.net.partition("/")[0]
        assert owner in engines.values() and port.name.startswith(f"weights_{owner}_")
        assert shared.design.nets[port.net].driver is None
