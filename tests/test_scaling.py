"""Scaling guard: per-design passes must stay (near) linear in design size.

``eco/delta.py`` rebuilt a set once per sink of the clock net from PR 7
to PR 21 — 2 s of a 2.3 s VGG layer swap — under an oracle-backed
property suite (tiny designs), a committed benchmark (compared against a
slower recompile) and an end-to-end ledger (one opaque self-time row).
None of them could see a quadratic.  This file can: each function below
runs on a synthetic design of size N and of size 4N and fails when the
CPU time grows by more than twice the linear ratio (a quadratic reads
16x, ``n log n`` about 4.5x).  CPU time (``time.process_time``), the
minimum of several samples, a ``gc.collect()`` before each and the
collector off while it runs: what is left is the function's own work.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.cnn import group_components, lenet5, vgg16
from repro.cnn.graph import Component
from repro.eco import DesignDelta, LayerReplace, apply_delta
from repro.fabric import Device, PBlock, RoutingGraph, TileType, auto_pblock
from repro.netlist import Design, encode_design
from repro.netlist.net import Net, Port
from repro.place import PlacementProblem, legalize, total_hpwl
from repro.rapidwright import ComponentDatabase, PreImplementedFlow
from repro.rapidwright.stitcher import compose
from repro.route.maze import direct_path
from repro.route.native import native_available
from repro.route.pathfinder import Router, routed_occupancy
from repro.timing import IncrementalSta

DEVICE = Device.from_name("ku5p-like")
GROWTH = 4
#: twice the linear ratio
LIMIT = 2.0 * GROWTH


def _cpu_s(prepare, run, samples: int = 5, fresh: bool = False) -> float:
    """Least CPU time of ``run(state)`` over *samples* runs.  ``prepare()``
    builds the state and is not timed; *fresh* rebuilds it for every
    sample, for a *run* that consumes it."""
    best = float("inf")
    state = prepare()
    for k in range(samples):
        if fresh and k:
            state = prepare()
        gc.collect()
        gc.disable()  # a collection's cost follows the heap, not the function
        try:
            t0 = time.process_time()
            run(state)
            best = min(best, time.process_time() - t0)
        finally:
            gc.enable()
    return best


def _assert_linear(prepare, run, n: int, fresh: bool = False) -> None:
    # a busy host can spoil one reading; a quadratic spoils both
    for _ in range(2):
        small = _cpu_s(lambda: prepare(n), run, fresh=fresh)
        large = _cpu_s(lambda: prepare(GROWTH * n), run, fresh=fresh)
        ratio = large / max(small, 1e-9)
        if ratio <= LIMIT:
            return
    raise AssertionError(
        f"{GROWTH}x the design costs {ratio:.1f}x the CPU time "
        f"({small * 1e3:.1f} ms -> {large * 1e3:.1f} ms); linear is {GROWTH}x"
    )


def _netlist(n: int, name: str = "syn") -> Design:
    """*n* slices in a chain, every eighth one also driving a 6-sink net."""
    design = Design(name)
    for i in range(n):
        design.new_cell(f"c{i}", "SLICE", luts=1, ffs=1)
    for i in range(n - 1):
        design.connect(f"n{i}", f"c{i}", [f"c{i + 1}"], width=1 + i % 16)
    for i in range(0, n - 8, 8):
        design.connect(f"f{i}", f"c{i}", [f"c{i + k}" for k in range(2, 8)])
    return design


def _problem(n: int):
    # a region sized to the design, so the site pools grow with it too
    region = auto_pblock(DEVICE, {"SLICE": n}, anchor=(0, 0), slack=1.5)
    problem = PlacementProblem.from_design(_netlist(n), DEVICE, region)
    c0, r0, c1, r1 = problem.bounds()
    pos = np.random.default_rng(n).uniform((c0, r0), (c1, r1), size=(n, 2))
    return problem, pos


def test_from_design_is_linear():
    _assert_linear(_netlist, lambda d: PlacementProblem.from_design(d, DEVICE), 4_000)


def test_legalize_is_linear():
    _assert_linear(_problem, lambda s: legalize(*s), 4_000)


def test_total_hpwl_is_linear():
    # from the net list: converting it is part of what must stay linear
    _assert_linear(_problem, lambda s: total_hpwl(s[1], s[0].nets), 4_000)


def test_instantiate_is_linear():
    _assert_linear(_netlist, lambda sub: Design("top").instantiate(sub, "u0"), 4_000)


# -- ECO layer swap ----------------------------------------------------------------

CLB = [int(c) for c in DEVICE.columns_of(TileType.CLB)]


def _swap_case(n: int):
    """A routed-design stand-in for a layer swap: module ``m`` holds n/10
    placed flops, n more flops belong to the rest of the design, and one
    clock net reaches them all."""
    k = max(1, n // 10)
    rows = DEVICE.nrows
    component = Design("variant", pblock=PBlock(0, 0, CLB[-(-k // rows)], rows - 1))
    for i in range(k):
        component.new_cell(f"r{i}", "SLICE", ffs=1, placement=(CLB[i // rows], i % rows))
    component.connect("link", "r0", [f"r{i}" for i in range(1, min(k, 8))])

    design = Design("top")
    design.metadata["anchors"] = {"m": (0, 0)}
    for i in range(k):
        design.new_cell(f"m/r{i}", "SLICE", ffs=1, module="m",
                        placement=(CLB[i // rows], i % rows))
    design.connect("m/link", "m/r0", [f"m/r{i}" for i in range(1, min(k, 8))])
    for i in range(n):
        design.new_cell(f"rest/f{i}", "SLICE", ffs=1, module="rest")
    # the module's flops interleaved with everybody else's, as a merged
    # clock net has them
    sinks = [f"rest/f{i}" for i in range(n)]
    for i in range(k):
        sinks.insert(i * 11, f"m/r{i}")
    design.add_net(Net("clk", None, sinks, is_clock=True))
    delta = DesignDelta("swap:m", (LayerReplace("m", component),))
    return design, delta


def _swap(state) -> None:
    design, delta = state
    record = apply_delta(design, delta, DEVICE)
    assert len(record.touched_cells) == len(delta.edits[0].component.cells)
    assert len(design.nets["clk"].sinks) == len(design.cells)


def test_apply_delta_is_linear():
    _assert_linear(_swap_case, _swap, 5_000, fresh=True)


def test_layer_swap_under_a_20k_sink_clock_net_within_budget():
    """The regression itself: 22 000 clock sinks, 2 000 of them replaced.
    One set per sink made this 0.6 s of CPU; built once, the whole delta
    is a few tens of milliseconds."""
    assert len(_swap_case(20_000)[0].nets["clk"].sinks) == 22_000
    spent = _cpu_s(lambda: _swap_case(20_000), _swap, samples=3, fresh=True)
    assert spent < 0.25, f"layer swap took {spent:.3f} s of CPU"


# -- the online phase over placed blocks -----------------------------------------------
#
# ``compose``, ``TimingGraph.sync``, ``routed_occupancy`` and
# ``encode_design`` on a synthetic three-instance stitched design whose
# component has N cells and 4N cells: routed, locked and relocatable like
# a pre-implemented one, so each function is measured on the placed
# blocks it meets in the flow and — flattened first — on the objects.

GRAPH = RoutingGraph(DEVICE)
WIDTH = 180     # CLB columns a synthetic component spreads over


def _component(n: int) -> Design:
    rows = DEVICE.nrows
    sites = [(CLB[i % WIDTH], i // WIDTH) for i in range(n)]
    design = Design("syn", pblock=PBlock(CLB[0], 0, CLB[WIDTH - 1], (n - 1) // WIDTH))
    for i, site in enumerate(sites):
        design.new_cell(f"c{i}", "SLICE", luts=1, ffs=1, placement=site, locked=True)
    node = lambda site: site[0] * rows + site[1]
    for i in range(n - 1):
        net = design.connect(f"n{i}", f"c{i}", [f"c{i + 1}"], width=1 + i % 16, locked=True)
        net.routes = [direct_path(node(sites[i]), node(sites[i + 1]), rows)]
    design.connect("in_net", None, ["c0"], width=16)
    design.connect("out_net", f"c{n - 1}", [], width=16)
    design.connect("clk_net", None, [f"c{i}" for i in range(n)], is_clock=True)
    design.add_port(Port("in_data", "in", "in_net", width=16))
    design.add_port(Port("out_data", "out", "out_net", width=16))
    design.add_port(Port("clk", "in", "clk_net"))
    return design


def _stitch_case(n: int):
    database = ComponentDatabase(DEVICE)
    design = _component(n)
    design.metadata["ooc"] = {"fmax_mhz": 500.0}
    database.put(("syn", n), design)
    comps = [Component(f"u{k}", [], "syn", ("syn", n), (), ()) for k in range(3)]
    height = (n - 1) // WIDTH + 1
    anchors = {c.name: (CLB[0], k * height) for k, c in enumerate(comps)}
    return comps, database, anchors


def _stitched(n: int, form: str):
    comps, database, anchors = _stitch_case(n)
    top = compose("top", comps, database, DEVICE, anchors).top
    assert len(top.blocks) == 3
    if form == "flat":
        top.cells
    return top


def test_a_record_keeps_one_ooc_fmax():
    """The library and composition read a record's OOC Fmax off one
    place, its image's metadata, so they agree after it changes."""
    comps, database, anchors = _stitch_case(40)
    assert database.fmax_of(("syn", 40)) == 500.0
    records = compose("top", comps, database, DEVICE, anchors).records
    assert [r.fmax_ooc_mhz for r in records] == [500.0] * 3
    (record,) = database.records.values()
    meta = record.image.metadata()
    meta["ooc"]["fmax_mhz"] = 250.0
    record.image = record.image.with_metadata(meta)
    assert database.fmax_of(("syn", 40)) == 250.0
    records = compose("top", comps, database, DEVICE, anchors).records
    assert [r.fmax_ooc_mhz for r in records] == [250.0] * 3


def test_compose_is_linear():
    _assert_linear(_stitch_case, lambda s: compose("top", s[0], s[1], DEVICE, s[2]), 4_000)


FORMS = pytest.mark.parametrize("form", ["blocks", "flat"])


@FORMS
def test_timing_resync_after_one_net_edit_is_linear(form):
    if form == "blocks" and not native_available():
        pytest.skip("the Python reference router walks design.nets")

    def prepare(n):
        top = _stitched(n, form)
        Router(DEVICE, GRAPH).route(top)
        session = IncrementalSta(top, DEVICE, GRAPH)
        session.analyze()
        (net,) = [x for x in top.loose_nets() if x.name.startswith("u1__")]
        return top, session, net

    def resync(state):
        top, session, net = state
        net.routes[0] = list(net.routes[0])     # a re-routed connection
        session._tg.sync()
        assert bool(top.blocks) == (form == "blocks")

    _assert_linear(prepare, resync, 4_000)


@FORMS
def test_routed_occupancy_is_linear(form):
    _assert_linear(lambda n: _stitched(n, form), lambda top: routed_occupancy(top, GRAPH), 4_000)


@FORMS
def test_encode_design_is_linear(form):
    _assert_linear(lambda n: _stitched(n, form), encode_design, 4_000)


@pytest.mark.skipif(not native_available(),
                    reason="the Python reference router walks design.nets")
@pytest.mark.parametrize("model", ["lenet5", "vgg16"])
def test_online_phase_builds_no_objects_until_asked(model):
    """By count, not time: a whole flow run plus the encoder materializes
    nothing; the first ``design.cells`` materializes each component once."""
    net, kwargs = {
        "lenet5": (lenet5(), {}),
        "vgg16": (vgg16(), {"granularity": "block", "rom_weights": False}),
    }[model]
    flow = PreImplementedFlow(DEVICE, component_effort="low", seed=0)
    tracer = obs.Tracer(obs.InMemorySink())
    with tracer.activate():
        result = flow.run(net, pipeline_target_mhz="auto", **kwargs)
        blob = encode_design(result.design)
        assert "codec.materialize" not in tracer.metrics
        n_components = len(group_components(net, kwargs.get("granularity", "layer")))
        assert len(result.design.cells) == sum(
            r.n_cells for r in result.extras["stitch"].records
        ) + result.extras["pipeline"].inserted
    assert tracer.metrics.counter("codec.materialize").value == n_components
    assert encode_design(result.design) == blob


@pytest.mark.parametrize("model", ["lenet5", "vgg16"])
def test_a_flatten_leaves_only_string_columns_on_the_images(model):
    """By bytes: fetch every record as an instance, flatten it and drop
    it — what the records' images keep afterwards is the resolved string
    columns (8 bytes an entry) and the name index, not rows of the
    objects: at most 24 bytes per image row (cells + nets + sinks)."""
    net, kwargs = {
        "lenet5": (lenet5(), {}),
        "vgg16": (vgg16(), {"granularity": "block", "rom_weights": False}),
    }[model]
    flow = PreImplementedFlow(DEVICE, component_effort="low", seed=0)
    database = flow.run(net, **kwargs).extras["database"]
    records = list(database.records.values())
    rows = sum(len(r.image.cell_name) + len(r.image.net_name) + len(r.image.sink_name)
               for r in records)
    fetched = [database.fetch(r.signature, r.image.pblock[:2], instance=f"u{k}")
               for k, r in enumerate(records)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for design in fetched:
            assert design.blocks and len(design.cells)
        del design, fetched
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 24 * rows, f"{kept / rows:.1f} bytes per image row kept"


@pytest.mark.skipif(not native_available(),
                    reason="the Python reference router walks design.nets")
@pytest.mark.parametrize("model", ["lenet5", "vgg16"])
def test_second_run_reads_back_what_the_images_keep(model, monkeypatch):
    """By count, not time: once a run has filled what each record's image
    keeps, a second ``flow.run`` + ``encode_design`` on the same database
    measures no block's routes again and parses no metadata blob; no
    clock sink list as long as the cells is built (no block lists its
    sequential cells, no ``Net`` has more sinks than the glue); and the
    component placer builds a pblock only for a candidate it tries."""
    import repro.netlist.codec as codec
    from repro.fabric.pblock import PBlock
    from repro.netlist.block import Block
    from repro.rapidwright import ComponentPlacer

    net, kwargs = {
        "lenet5": (lenet5(), {}),
        "vgg16": (vgg16(), {"granularity": "block", "rom_weights": False}),
    }[model]
    flow = PreImplementedFlow(DEVICE, component_effort="low", seed=0)
    database = ComponentDatabase(DEVICE)  # the first run fills it

    def run():
        result = flow.run(net, database=database, pipeline_target_mhz="auto", **kwargs)
        return encode_design(result.design)

    first = run()
    # a block's paths are measured through the start column its image keeps
    block_starts = {
        id(Block(record.image, 0, 0, DEVICE.nrows, None).timing_rows().start)
        for record in database.records.values()
    }
    measured, parsed = [], []
    path_metrics_csr, unpack_value = RoutingGraph.path_metrics_csr, codec.unpack_value

    def counting_metrics(self, nodes, starts, lens):
        measured.append(id(starts) in block_starts)
        return path_metrics_csr(self, nodes, starts, lens)

    def counting_unpack(blob):
        parsed.append(len(blob))
        return unpack_value(blob)

    listed, net_sinks, pblocks, searches = [], [], [], []
    seq_cell_names, net_init = Block.seq_cell_names, Net.__init__
    post_init, place = PBlock.__post_init__, ComponentPlacer.place

    def counting_listing(self):
        listed.append(self.instance)
        return seq_cell_names(self)

    def counting_net(self, name, driver, sinks=None, **kwargs):
        net_sinks.append(len(sinks or ()))
        net_init(self, name, driver, sinks, **kwargs)

    def counting_pblock(self):
        pblocks.append(self)
        post_init(self)

    def counting_place(self, items, connections):
        before = len(pblocks)
        result = place(self, items, connections)
        searches.append((len(items), len(pblocks) - before, result.backtracks, result.attempts))
        return result

    monkeypatch.setattr(RoutingGraph, "path_metrics_csr", counting_metrics)
    monkeypatch.setattr(codec, "unpack_value", counting_unpack)
    monkeypatch.setattr(Block, "seq_cell_names", counting_listing)
    monkeypatch.setattr(Net, "__init__", counting_net)
    monkeypatch.setattr(PBlock, "__post_init__", counting_pblock)
    monkeypatch.setattr(ComponentPlacer, "place", counting_place)
    result = flow.run(net, database=database, pipeline_target_mhz="auto", **kwargs)
    assert encode_design(result.design) == first
    assert measured and not any(measured)       # the glue's routes, and only they
    assert parsed == []
    assert listed == []
    glue = sum(len(n.sinks) for n in result.design.loose_nets() if not n.is_clock)
    assert net_sinks and max(net_sinks) <= glue < result.design.n_cells
    ((n_items, built, backtracks, attempts),) = searches
    assert backtracks == 0 and built == attempts <= 2 * n_items
    # (and the guard can see a miss: a record nobody has fetched yet is parsed)
    signature = next(iter(database.records.values())).signature
    fresh = ComponentDatabase(DEVICE)
    fresh.put(signature, database.get(signature))
    fresh.fetch(signature)
    assert parsed, "a fresh record's metadata is parsed once"


@pytest.mark.skipif(not native_available(),
                    reason="the Python reference router walks design.nets")
@pytest.mark.parametrize("model", ["lenet5", "vgg16"])
def test_a_run_resolves_each_placed_block_once(model, monkeypatch):
    """By count, on a second run: what a block holds at its anchor or
    after stitching — its sites, the names of its driverless, clock and
    sinkless nets, its wire charge — is worked out at most once per
    block, the charge once across both route passes (pipelining adds a
    reroute on VGG-16), and the bytes are the first run's."""
    from collections import Counter

    from repro.netlist.block import Block

    net, kwargs = {
        "lenet5": (lenet5(), {}),
        "vgg16": (vgg16(), {"granularity": "block", "rom_weights": False}),
    }[model]
    # (high effort: the stitched VGG-16 then misses the auto target and is pipelined)
    flow = PreImplementedFlow(DEVICE, component_effort="high", seed=0)
    database = ComponentDatabase(DEVICE)  # the first run fills it

    def run():
        result = flow.run(net, database=database, pipeline_target_mhz="auto", **kwargs)
        return result, encode_design(result.design)

    first = run()[1]
    calls: Counter = Counter()
    for name in ("sites", "_odd_nets", "wire_use"):
        def counting(self, *args, _method=getattr(Block, name), _name=name):
            calls[_name, self] += 1
            return _method(self, *args)

        monkeypatch.setattr(Block, name, counting)
    result, blob = run()
    assert blob == first
    blocks = set(result.design.blocks)
    assert blocks and {block for _name, block in calls} <= blocks
    assert max(calls.values()) == 1, calls.most_common(1)
    assert {block for name, block in calls if name == "wire_use"} == blocks
    assert (result.extras["pipeline"].inserted > 0) == (model == "vgg16")


@pytest.mark.skipif(not native_available(),
                    reason="the Python reference router walks design.nets")
@pytest.mark.parametrize("model", ["lenet5", "vgg16"])
def test_a_run_scatters_no_placed_cell(model, monkeypatch):
    """By count and by what is kept, on a second run: the placement
    rules of ``validate`` and the pipeliner's free-site search decide a
    placed block from its box and its image's sorted sites, so no
    block's site ids are asked for; and the first timing analysis keeps
    no column sized by the placed cells — a block's slots are the arrays
    its image keeps.  The bytes are the first run's."""
    from collections import Counter

    from repro.netlist.block import Block

    net, kwargs = {
        "lenet5": (lenet5(), {}),
        "vgg16": (vgg16(), {"granularity": "block", "rom_weights": False}),
    }[model]
    flow = PreImplementedFlow(DEVICE, component_effort="high", seed=0)
    database = ComponentDatabase(DEVICE)  # the first run fills it

    def run():
        result = flow.run(net, database=database, pipeline_target_mhz="auto", **kwargs)
        return result, encode_design(result.design)

    first = run()[1]
    site_ids, analyze = Block.site_ids, IncrementalSta.analyze
    calls: Counter = Counter()
    kept: dict = {}

    def counting(self, *args):
        calls[self] += 1
        return site_ids(self, *args)

    def first_analysis(self):
        if kept:
            return analyze(self)
        tracemalloc.start()
        try:
            return analyze(self)
        finally:
            kept["largest"] = max((t.size for t in tracemalloc.take_snapshot().traces), default=0)
            tracemalloc.stop()

    monkeypatch.setattr(Block, "site_ids", counting)
    monkeypatch.setattr(IncrementalSta, "analyze", first_analysis)
    result, blob = run()
    assert blob == first
    assert result.design.blocks and not calls
    assert (result.extras["pipeline"].inserted > 0) == (model == "vgg16")
    # (the slot columns were 8 bytes a cell, each)
    assert 0 < kept["largest"] < 4 * result.design.n_cells, kept


# -- the component placer ----------------------------------------------------------------


def _placer_case(n: int):
    """*n* small modules in a chain, each legal anywhere a CLB column is."""
    from repro.rapidwright.module import Footprint

    sites = np.array([[0, r] for r in range(6)], dtype=np.int64)
    module = Footprint("m", PBlock(CLB[0], 0, CLB[0] + 1, 9), {0: int(TileType.CLB)}, sites,
                       {"in_data": (CLB[0], 0), "out_data": (CLB[0] + 1, 9)})
    return [(f"u{i}", module) for i in range(n)], [(i - 1, i) for i in range(1, n)]


def test_component_placer_is_linear():
    from repro.rapidwright import ComponentPlacer

    def place(case):
        found = ComponentPlacer(DEVICE).place(*case)
        assert len(found.anchors) == len(case[0]) and found.backtracks == 0

    _assert_linear(_placer_case, place, 6)


# -- what depends only on the device or the signature ----------------------------------


def _lenet_flow():
    """A small-part LeNet-5 flow whose library the first run fills."""
    device = Device.from_name("small")
    flow = PreImplementedFlow(device, component_effort="low", seed=0)
    database = ComponentDatabase(device)
    flow.run(lenet5(), database=database, jobs=1)
    return device, flow, database


def test_a_run_hashes_each_signature_once(monkeypatch):
    """``signature_key`` is asked three times per component and run (``has``,
    ``footprint``, ``fetch``), each time of a signature built afresh: no
    signature's canonical blob is hashed twice in a run, and none at all
    in a run of signatures the process has hashed before."""
    from collections import Counter

    from repro.rapidwright import database as database_module

    _device, flow, database = _lenet_flow()
    hashed: Counter = Counter()
    blob = database_module.canonical_blob

    def counting(obj):
        hashed[repr(obj)] += 1
        return blob(obj)

    monkeypatch.setattr(database_module, "canonical_blob", counting)
    flow.run(lenet5(), database=database)
    assert max(hashed.values(), default=0) <= 1, hashed.most_common(1)
    hashed.clear()
    flow.run(lenet5(), database=database)
    assert not hashed, hashed.most_common(1)


@pytest.mark.skipif(not native_available(), reason="the Python reference router borrows no buffers")
def test_a_second_run_allocates_no_node_sized_route_buffer(monkeypatch):
    """The device's routing graph lends every pass the same pooled work
    arrays, and every router the same occupancy array: while a pass of a
    second run negotiates, no node-sized array that the router, its
    driver or the graph allocated is alive, and the pool holds the
    buffer sets it held before the run."""
    from repro.route import native as route_native

    device, flow, database = _lenet_flow()
    pooled = list(device.routing_graph._free)
    n_bytes = device.routing_graph.n_nodes * 8
    lib = route_native._lib()
    iterate = lib.route_iterate
    passes, made = [], []

    def watching(*args):
        snapshot = tracemalloc.take_snapshot()
        passes.append(1)
        made.extend(
            trace for trace in snapshot.traces if trace.size >= n_bytes
            and trace.traceback[-1].filename.endswith(
                ("route/native.py", "route/pathfinder.py", "fabric/interconnect.py")))
        return iterate(*args)

    monkeypatch.setattr(lib, "route_iterate", watching)
    tracemalloc.start(32)
    try:
        flow.run(lenet5(), database=database, pipeline_target_mhz=1000.0)
    finally:
        tracemalloc.stop()
    assert passes, "no route pass negotiated"
    assert made == [], [str(trace.traceback) for trace in made[:2]]
    assert device.routing_graph._free == pooled
