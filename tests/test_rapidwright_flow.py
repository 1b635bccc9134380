"""Stitcher and end-to-end pre-implemented flow on the tiny CNN."""

import gc
import os

import pytest

from repro.analysis.productivity import BASELINE_STAGES, ROUTE_STAGES, RW_STAGES
from repro.cnn import group_components
from repro.obs import Tracer
from repro.rapidwright import ComponentDatabase, PreImplementedFlow, compose, signature_key
from repro.rapidwright.placer import ComponentPlacer
from repro.rapidwright.stitcher import unique_components
from repro.serve.progress import STAGE_MAP
from repro.vivado import VivadoFlow
from tests.conftest import make_tiny_cnn, stages_under_run


@pytest.fixture(scope="module")
def flow_pair(small_device):
    """Baseline and pre-implemented results for the tiny CNN.

    Their ``runtime_s`` are compared below (12 ms against 70 ms), so
    neither run may absorb a full collection of the test session's heap
    (100+ ms by the time this module runs): collect before each.
    """
    net = make_tiny_cnn()
    gc.collect()
    baseline = VivadoFlow(small_device, effort="low", seed=0).run(net, rom_weights=True)
    gc.collect()
    ours = PreImplementedFlow(small_device, component_effort="low", seed=0).run(
        net, rom_weights=True)
    return baseline, ours, ours.extras["database"], net


# -- stitcher ------------------------------------------------------------------


def test_compose_produces_partially_routed_design(small_device, flow_pair):
    _, ours, db, net = flow_pair
    stitch = ours.extras["stitch"]
    top = stitch.top
    # every component's internals are locked; only stitch nets were open
    assert len(stitch.stitch_nets) == len(stitch.records) - 1
    for name in stitch.stitch_nets:
        assert not top.nets[name].locked
    locked_cells = [c for c in top.cells.values() if c.locked]
    assert len(locked_cells) == len(top.cells)


def test_compose_requires_anchors(small_device, flow_pair):
    _, _, db, net = flow_pair
    comps = group_components(net, "layer")
    with pytest.raises(Exception, match="no anchor"):
        compose("x", comps, db, small_device, anchors={})


def test_stitched_fmax_bounded_by_slowest_component(flow_pair):
    _, ours, _, _ = flow_pair
    stitch = ours.extras["stitch"]
    # paper: "the frequency of the pre-built design is upper bounded by the
    # slowest component in the design"
    assert ours.fmax_mhz <= stitch.slowest_component_mhz + 1e-6


def test_records_carry_ooc_fmax(flow_pair):
    _, ours, db, net = flow_pair
    for record in ours.extras["stitch"].records:
        assert record.fmax_mhz_check if False else record.fmax_ooc_mhz > 0
        assert db.has(record.signature)


# -- flow-level claims -----------------------------------------------------------


def test_preimplemented_fmax_competitive_at_tiny_scale(flow_pair):
    """On a tiny 3-component CNN the vendor flow optimizes well (the paper:
    "vendor tools tend to deliver high-performance results on small
    modules"), so stitched and monolithic Fmax are comparable; the
    pre-implemented advantage appears at network scale (see the LeNet
    integration test and the Table III benchmark)."""
    baseline, ours, _, _ = flow_pair
    assert ours.fmax_mhz > baseline.fmax_mhz * 0.75


def _best_runtime_s(first, run, repeats=2):
    """Fastest wall time of *first* and *repeats* more calls of *run*: one
    preemption of the host during a 10 ms flow must not decide the race."""
    times = [first.runtime_s]
    for _ in range(repeats):
        gc.collect()
        times.append(run().runtime_s)
    return min(times)


def test_preimplemented_faster_compile(small_device, flow_pair):
    baseline, ours, db, net = flow_pair
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    ours_s = _best_runtime_s(ours, lambda: flow.run(net, rom_weights=True, database=db))
    vivado = VivadoFlow(small_device, effort="low", seed=0)
    baseline_s = _best_runtime_s(baseline, lambda: vivado.run(net, rom_weights=True))
    assert ours_s < baseline_s


def test_preimplemented_uses_no_more_resources(small_device, flow_pair):
    baseline, ours, _, _ = flow_pair
    ub = baseline.design.resource_usage()
    uo = ours.design.resource_usage()
    for key in ("LUT", "FF", "RAMB36"):
        assert uo.get(key, 0) <= ub.get(key, 0)


def test_stitched_design_validates_and_routes(small_device, flow_pair):
    _, ours, _, _ = flow_pair
    ours.design.validate(small_device)
    assert ours.route.failed == 0
    assert ours.design.is_fully_routed


def test_flow_builds_database_on_demand(small_device):
    net = make_tiny_cnn()
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    result = flow.run(net, rom_weights=True)
    assert result.extras["offline_s"] > 0
    assert result.fmax_mhz > 0


def test_flow_fills_the_empty_database_it_is_handed(small_device, tmp_path):
    """An empty database is falsy (``__len__``): the flow must still build
    into *it* — here one backed by a directory — not into a private
    in-memory replacement."""
    net = make_tiny_cnn()
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    db = ComponentDatabase(small_device, directory=tmp_path / "lib")
    assert not db and len(db) == 0
    result = flow.run(net, rom_weights=True, database=db)
    assert result.extras["database"] is db and result.extras["offline_s"] > 0
    assert len(db) == len(unique_components(group_components(net, "layer")))
    assert len(list((tmp_path / "lib").glob("*.dcpb"))) == len(db)


def _count_preimplement(monkeypatch) -> list:
    """Names of the designs pre-implemented in this process from now on."""
    import repro.rapidwright.explore as explore

    built = []
    preimplement = explore.preimplement

    def counted(design, *args, **kwargs):
        built.append(design.name)
        return preimplement(design, *args, **kwargs)

    monkeypatch.setattr(explore, "preimplement", counted)
    return built


def test_run_builds_on_the_workers_it_is_given(small_device, monkeypatch):
    """One ``run`` is the whole flow: with ``jobs=1`` it pre-implements
    each unique signature once, in this process, and reports that cost."""
    net = make_tiny_cnn()
    built = _count_preimplement(monkeypatch)
    result = PreImplementedFlow(small_device, component_effort="low", seed=0).run(
        net, rom_weights=True, jobs=1)
    assert len(built) == len(unique_components(group_components(net, "layer")))
    assert len(result.extras["database"]) == len(built)
    assert result.extras["offline_s"] > 0


def test_flow_reuses_database_across_runs(small_device, flow_pair):
    _, _, db, net = flow_pair
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    tracer = Tracer()
    with tracer.activate():
        result = flow.run(net, rom_weights=True, database=db)
    assert result.extras["offline_s"] == 0.0
    assert tracer.metrics.counter("codec.fetch").value > 0


def test_build_database_is_the_library_a_run_builds(small_device, flow_pair):
    """``build_database`` — a library with no run — files the same records,
    byte for byte, as the run that built its own."""
    _, _, db, net = flow_pair
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    library, report = flow.build_database(net, rom_weights=True)
    assert report.run_s > 0
    assert {key: r.image.to_bytes() for key, r in library.records.items()} == \
        {key: r.image.to_bytes() for key, r in db.records.items()}


def test_stage_ledger_matches_trace(traced_lenet):
    result, spans = traced_lenet["preimpl"]
    assert list(result.stages) == stages_under_run(spans)
    assert "vivado:reroute" in result.stages  # the pipeliner split nets
    # every stage the Fig. 6 accounting and serve's progress stream name is
    # emitted by one of the two runs, so a renamed stage cannot zero them
    emitted = {s["name"] for _, run_spans in traced_lenet.values() for s in run_spans}
    named = {*RW_STAGES, *ROUTE_STAGES, *BASELINE_STAGES, *STAGE_MAP}
    assert named <= emitted, sorted(named - emitted)


def test_run_builds_only_what_the_database_lacks(small_device, flow_pair, monkeypatch):
    """A database holding part of the network's signatures: the run
    pre-implements exactly the rest, in one offline build, and uses the
    records it found as they are."""
    _, _, db, net = flow_pair
    comps = unique_components(group_components(net, "layer"))
    partial = ComponentDatabase(small_device)
    for comp in comps[::2]:
        key = signature_key(comp.signature)
        partial.records[key] = db.records[key]
    held = {key: record.image for key, record in partial.records.items()}

    built = _count_preimplement(monkeypatch)
    # one usable core: the build runs in this process, where the count is kept
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    result = PreImplementedFlow(small_device, component_effort="low", seed=0).run(
        net, rom_weights=True, database=partial)

    assert len(built) == len(comps) - len(held) > 0
    assert all(partial.has(comp.signature) for comp in comps)
    assert all(partial.records[key].image is image for key, image in held.items())
    assert result.extras["offline_s"] > 0


def test_productivity_report(flow_pair):
    from repro.analysis import compare_productivity

    baseline, ours, _, _ = flow_pair
    report = compare_productivity(baseline, ours)
    assert 0 < report.gain < 1
    assert 0 <= report.stitch_fraction <= 1
    assert report.preimpl_s == pytest.approx(report.rw_s + report.route_s)
    assert "productivity" in report.summary()


def test_pipeline_target_zero_raises_clear_error(small_device, flow_pair):
    """A degenerate 0 MHz target must not surface as ZeroDivisionError."""
    _, _, db, net = flow_pair
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    with pytest.raises(ValueError, match="positive frequency"):
        flow.run(net, rom_weights=True, database=db, pipeline_target_mhz=0)
    with pytest.raises(ValueError, match="positive frequency"):
        flow.run(net, rom_weights=True, database=db, pipeline_target_mhz=-100.0)


def test_pipeline_target_bad_string_raises(small_device, flow_pair):
    _, _, db, net = flow_pair
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    with pytest.raises(ValueError, match="'auto'"):
        flow.run(net, rom_weights=True, database=db, pipeline_target_mhz="fastest")


# -- online-phase bookkeeping ------------------------------------------------------


def test_route_result_covers_both_passes(small_device, flow_pair, monkeypatch):
    """``FlowResult.route`` reports the inter-component pass plus the
    post-pipelining reroute, and the reroute only runs when a register
    was inserted."""
    from repro.route.pathfinder import Router
    from repro.timing import DelayModel

    _, _, db, net = flow_pair
    passes = []
    route = Router.route

    def recording(self, design, **kwargs):
        passes.append(route(self, design, **kwargs))
        return passes[-1]

    monkeypatch.setattr(Router, "route", recording)

    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    result = flow.run(net, rom_weights=True, database=db, pipeline_target_mhz="auto")
    assert result.extras["pipeline"].inserted == 0
    assert len(passes) == 1 and result.route is passes[0]
    assert result.route.routed == len(result.extras["stitch"].stitch_nets)

    # Slow wires make the stitch nets critical, so registers go in.
    passes.clear()
    slow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    slow.delays = DelayModel(tile_delay_ps=200.0)
    result = slow.run(net, rom_weights=True, database=db, pipeline_target_mhz="auto")
    assert result.extras["pipeline"].inserted > 0
    first, reroute = passes
    assert reroute.routed > 0
    assert result.route.routed == first.routed + reroute.routed
    assert result.route.wirelength == first.wirelength + reroute.wirelength
    assert result.route.iterations == first.iterations + reroute.iterations
    assert result.route.success and result.design.is_fully_routed


def test_reused_flow_keeps_no_routes_alive(small_device, flow_pair):
    """Five runs on one flow object: nothing reachable from ``flow.graph``
    is a route of any result (the graph used to memoize path metrics by
    route identity and so pinned every route list it ever measured), and
    the heap is no larger after the fifth run than after the first."""
    import gc

    _, _, db, net = flow_pair
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)

    def reachable_ids(root) -> set[int]:
        seen = {id(root)}
        stack = [root]
        while stack:
            for child in gc.get_referents(stack.pop()):
                if id(child) not in seen:
                    seen.add(id(child))
                    stack.append(child)
        return seen

    heap = []
    for _ in range(5):
        result = flow.run(net, rom_weights=True, database=db, pipeline_target_mhz="auto")
        held = reachable_ids(flow.graph)
        routes = [r for n in result.design.nets.values() for r in n.routes if r is not None]
        assert routes and not any(id(r) in held for r in routes)
        del result, routes, held
        gc.collect()
        heap.append(len(gc.get_objects()))
    assert heap[-1] <= heap[0] * 1.01
