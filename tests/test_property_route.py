"""Property tests for PathFinder (repro.route.pathfinder).

Hypothesis over random multi-fanout routing problems on the small part:

* a successful route never leaves a wire over capacity (occupancy
  recomputed from the committed paths, with per-net trunk sharing);
* every committed path is a connected walk on the fabric from the
  driver's node to the sink's node (single or hex wire hops only,
  never leaving the device);
* rerouting an already-routed design is a no-op: the router reports the
  old connections as preexisting, routes nothing, and leaves every path
  byte-identical.
* :func:`routed_occupancy` — computed from all routes at once — returns
  the array, connection count and per-net usage of a plain walk over
  the nets.
* the compiled negotiation core (``Router.route`` with the core loaded)
  writes byte-identical routes and returns the same ``RouteResult`` as
  the scalar oracle ``Router.route_reference`` — on random problems and
  on congestion-heavy ones whose connections all cross the die — and
  ``Router.route`` runs the oracle itself when the core is unavailable;
  on a congested design both record the same ``route.*`` telemetry,
  A* expansions included, so the core's certified search window pops
  exactly what the unwindowed Python search pops.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import Device, RoutingGraph, TileType
from repro.fabric.interconnect import HEX_REACH
from repro.netlist import Design
from repro.netlist.net import Net
from repro.obs.span import Tracer
from repro.route import Router
from repro.route import native as route_native
from repro.route.pathfinder import RoutingError, routed_occupancy

SMALL = Device.from_name("small")
CLB_COLS = [int(c) for c in SMALL.columns_of(TileType.CLB)]
WIRE_CAPACITY = int(RoutingGraph(SMALL).capacity.max())


def _fanout_design(draw, name, n_nets, drivers, sinks, max_width):
    """*n_nets* nets of one driver and one to three sinks on SLICE cells
    placed at random inside the ``(columns, rows)`` pools *drivers* and
    *sinks*, each ``1..max_width`` wide.  Sites come from a seeded numpy
    generator (cheap to shrink), fanouts and widths from Hypothesis."""
    rng_seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(rng_seed)
    design = Design(f"{name}{rng_seed}")

    def site(pool):
        cols, rows = pool
        return cols[int(rng.integers(0, len(cols)))], int(rng.integers(rows.start, rows.stop))

    for i in range(n_nets):
        design.new_cell(f"d{i}", "SLICE", placement=site(drivers), luts=1)
        names = [f"s{i}_{j}" for j in range(draw(st.integers(1, 3)))]
        for cell in names:
            design.new_cell(cell, "SLICE", placement=site(sinks), luts=1)
        design.connect(f"n{i}", f"d{i}", names, width=draw(st.integers(1, max_width)))
    return design, rng_seed


@st.composite
def routing_problems(draw):
    """A design of random placed cell pairs joined by multi-sink nets."""
    anywhere = (CLB_COLS, range(SMALL.nrows))
    return _fanout_design(
        draw, "prop", draw(st.integers(1, 6)), anywhere, anywhere, max_width=8
    )


@st.composite
def boundary_heavy_problems(draw):
    """Designs whose every connection crosses the die, on nets up to a
    whole wire wide.

    Drivers sit in one corner quadrant of the fabric and sinks in the
    opposite one, so the direct routes pile onto the same wires; with
    widths this large about a third of the draws overuse some and go on
    to rip up, A*-reroute and escalate history (a few never converge) —
    the part of the negotiation :func:`routing_problems`, whose narrow
    nets all route in one iteration, never reaches.
    """
    half_c, half_r = SMALL.ncols // 2, SMALL.nrows // 2
    return _fanout_design(
        draw, "boundary", draw(st.integers(2, 8)),
        ([c for c in CLB_COLS if c < half_c], range(half_r)),
        ([c for c in CLB_COLS if c >= half_c], range(half_r, SMALL.nrows)),
        max_width=WIRE_CAPACITY,
    )


def _occupancy_walk(design: Design, graph: RoutingGraph):
    """The accounting spelled out: one pass, one node at a time."""
    occupancy = np.zeros(graph.n_nodes, dtype=np.float64)
    net_usage: dict[str, dict[int, int]] = {}
    preexisting = 0
    for net in design.nets.values():
        if net.is_clock or net.driver is None:
            continue
        usage = net_usage.setdefault(net.name, {})
        for path in net.routes:
            if path is None:
                continue
            for node in path[1:-1]:  # endpoints are pins, not wires
                usage[node] = usage.get(node, 0) + 1
                if usage[node] == 1:
                    occupancy[node] += net.width
            preexisting += 1
    return occupancy, net_usage, preexisting


@settings(max_examples=25, deadline=None)
@given(routing_problems())
def test_successful_route_has_zero_overuse(problem):
    design, seed = problem
    graph = RoutingGraph(SMALL)
    result = Router(SMALL, graph).route(design)
    assert result.routed + result.failed == sum(
        len(net.sinks) for net in design.nets.values()
    )
    if result.success:
        assert result.overused_nodes == 0
        occupancy, _usage, _routed = _occupancy_walk(design, graph)
        assert (occupancy <= graph.capacity).all()


@settings(max_examples=25, deadline=None)
@given(routing_problems())
def test_routes_are_connected_driver_to_sink_walks(problem):
    design, seed = problem
    graph = RoutingGraph(SMALL)
    nrows = SMALL.nrows
    Router(SMALL, graph).route(design)
    for net in design.nets.values():
        driver = design.cells[net.driver]
        for i, sink_name in enumerate(net.sinks):
            path = net.routes[i]
            assert path is not None, f"{net.name}[{i}] left unrouted"
            assert path[0] == graph.node_id(*driver.placement)
            assert path[-1] == graph.node_id(*design.cells[sink_name].placement)
            for node in path:
                assert 0 <= node < graph.n_nodes
            for a, b in zip(path, path[1:]):
                dcol = abs(b // nrows - a // nrows)
                drow = abs(b % nrows - a % nrows)
                # one hop along one axis: a single wire or a hex wire
                assert (dcol, drow) in {
                    (1, 0), (0, 1), (HEX_REACH, 0), (0, HEX_REACH),
                }, f"illegal hop {a}->{b} on {net.name}"


@settings(max_examples=15, deadline=None)
@given(routing_problems())
def test_rerouting_routed_design_is_noop(problem):
    design, seed = problem
    first = Router(SMALL).route(design)
    if first.failed:
        return  # only fully-routed designs make the no-op claim
    snapshot = {
        name: copy.deepcopy(net.routes) for name, net in design.nets.items()
    }
    second = Router(SMALL).route(design)
    assert second.routed == 0
    assert second.failed == 0
    assert second.preexisting == first.routed + first.preexisting
    assert second.wirelength == 0
    for name, net in design.nets.items():
        assert net.routes == snapshot[name]


# -- routed_occupancy vs a scalar walk ----------------------------------------


@st.composite
def routed_designs(draw):
    """Nets with hand-made routes: sinks sharing a trunk, repeated nodes,
    2-node paths with no interior, unrouted sinks, wide nets, clock and
    driverless nets that must be ignored."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n_nodes = RoutingGraph(SMALL).n_nodes
    design = Design(f"occ{seed}")
    for k in range(int(rng.integers(0, 7))):
        kind = rng.random()
        net = Net(
            f"n{k}",
            driver=None if kind < 0.15 else f"d{k}",
            sinks=[f"s{k}_{j}" for j in range(int(rng.integers(0, 5)))],
            width=int(rng.integers(1, 9)),
            is_clock=0.15 <= kind < 0.3,
        )
        trunk = [int(x) for x in rng.integers(0, n_nodes, size=int(rng.integers(1, 6)))]
        for i in range(len(net.sinks)):
            shape = rng.random()
            if shape < 0.25:
                continue  # unrouted sink
            branch = [int(x) for x in rng.integers(0, n_nodes, size=int(rng.integers(1, 5)))]
            net.routes[i] = branch[:2] if shape < 0.4 else trunk + branch
        design.add_net(net)
    return design


@settings(max_examples=120, deadline=None)
@given(routed_designs())
def test_routed_occupancy_matches_scalar_walk(design):
    graph = RoutingGraph(SMALL)
    occupancy, net_usage, preexisting = routed_occupancy(design, graph)
    want_occupancy, want_usage, want_preexisting = _occupancy_walk(design, graph)
    assert occupancy.dtype == want_occupancy.dtype
    assert np.array_equal(occupancy, want_occupancy)
    assert preexisting == want_preexisting
    # Usage is promised for every net a router could still have to route
    # (insertion order included: the C core is fed the items as they come).
    for net in design.nets.values():
        if net.is_clock or net.driver is None or None not in net.routes:
            assert net.name not in net_usage
        else:
            assert list(net_usage[net.name].items()) == list(want_usage[net.name].items())


# -- compiled core vs the scalar oracle ---------------------------------------


def _routed(design: Design, method: str):
    """Route a copy of *design* through ``Router.<method>``; the routes
    it wrote, every field of its result and the ``route.*`` metrics it
    recorded."""
    design = copy.deepcopy(design)
    tracer = Tracer()
    with tracer.activate():
        result = getattr(Router(SMALL, RoutingGraph(SMALL)), method)(design)
    routes = {name: net.routes for name, net in design.nets.items()}
    metrics = [e for e in tracer.metrics.events() if e["name"].startswith("route.")]
    return routes, vars(result), metrics


@pytest.mark.skipif(
    not route_native.native_available(), reason="compiled route core unavailable"
)
@settings(max_examples=40, deadline=None)
@given(routing_problems(), boundary_heavy_problems())
def test_native_route_matches_reference(easy, congested):
    for design, _seed in (easy, congested):
        routes, result, metrics = _routed(design, "route")
        routes_ref, result_ref, metrics_ref = _routed(design, "route_reference")
        assert result == result_ref
        assert routes == routes_ref
        assert metrics == metrics_ref


@pytest.mark.parametrize("core", ["native", "fallback"])
def test_route_dispatch_matches_reference(monkeypatch, request, core):
    """``Router.route`` picks its implementation by core availability and
    nothing else: it equals the oracle both with the C core and with
    ``REPRO_NATIVE=0`` (when it must run the oracle itself)."""
    if core == "native":
        if not route_native.native_available():
            pytest.skip("compiled route core unavailable")
    else:
        monkeypatch.setenv("REPRO_NATIVE", "0")
        route_native._lib.cache_clear()  # forget the loaded core, and again after
        request.addfinalizer(route_native._lib.cache_clear)
        assert not route_native.native_available()
    ran = []
    real_native, real_reference = route_native.route_native, Router.route_reference
    monkeypatch.setattr(
        route_native, "route_native",
        lambda *a, **kw: ran.append("native") or real_native(*a, **kw),
    )
    monkeypatch.setattr(
        Router, "route_reference",
        lambda *a, **kw: ran.append("reference") or real_reference(*a, **kw),
    )
    design = Design("dispatch")
    rows = SMALL.nrows
    for i in range(24):  # wide nets across the die: forces A* reroutes
        design.new_cell(f"s{i}", "SLICE", placement=(CLB_COLS[0], i % rows), luts=1)
        design.new_cell(f"t{i}", "SLICE", placement=(CLB_COLS[-1], (i * 3) % rows), luts=1)
        design.connect(f"n{i}", f"s{i}", [f"t{i}"], width=120)
    routes, result, metrics = _routed(design, "route")
    assert ran == (["native"] if core == "native" else ["reference"])
    routes_ref, result_ref, metrics_ref = _routed(design, "route_reference")
    assert result["iterations"] > 1, "workload too easy to exercise rerouting"
    assert result == result_ref
    assert routes == routes_ref
    # the telemetry does not depend on which implementation ran: equal
    # expansion counts mean the core's certified window popped exactly
    # the nodes the unwindowed search pops
    counters = {e["name"]: e["value"] for e in metrics if e["kind"] == "counter"}
    assert counters["route.astar.calls"] > 0
    assert counters["route.astar.expansions"] > 0
    assert metrics == metrics_ref


# -- one routing session per device ----------------------------------------------


def _fresh_reference(device: Device, design: Design, region=None):
    """``route_reference`` of a flattened copy of *design* on a router and
    graph of its own: the result, and the copy's bytes after it."""
    from repro.netlist import decode_design, encode_design

    twin = decode_design(encode_design(design))
    result = Router(device, RoutingGraph(device)).route_reference(twin, region=region)
    return vars(result), encode_design(twin)


def _checked_route(device: Device, seen: list):
    """``Router.route``, asserting each pass equal to a fresh reference."""
    from repro.netlist import encode_design

    route = Router.route

    def checked(self, design, *, region=None):
        assert self.graph is device.routing_graph
        want = _fresh_reference(device, design, region)
        result = route(self, design, region=region)
        assert (vars(result), encode_design(design)) == want
        seen.append(vars(result))
        return result

    return checked


#: A pipelining target the small-part, low-effort LeNet-5 meets only
#: after four registers (it stitches to 282 MHz and reaches 398.6).
LENET_SPLIT_MHZ = 400.0


def _region_design(device: Device) -> Design:
    """Wide nets between the corners of a pblock: the direct routes pile
    up, so the pass rips up and A*-reroutes inside the region."""
    from repro.fabric import PBlock

    cols = [int(c) for c in device.columns_of(TileType.CLB)][2:10]
    design = Design("ooc", pblock=PBlock(cols[0] - 1, 0, cols[-1] + 1, 40))
    for i in range(12):
        design.new_cell(f"s{i}", "SLICE", placement=(cols[i % 2], i * 3), luts=1)
        design.new_cell(f"t{i}", "SLICE", placement=(cols[-1 - i % 2], 39 - i * 3), luts=1)
        design.connect(f"n{i}", f"s{i}", [f"t{i}"], width=WIRE_CAPACITY)
    return design


@pytest.mark.skipif(not route_native.native_available(), reason="compiled route core unavailable")
def test_one_session_per_device_routes_as_fresh_references(monkeypatch):
    """One device's routing session (its graph and pooled buffers) through
    a stitched pass, the reroute after pipelining, a region-blocked OOC
    route, a route that raises in its setup and one more route: each
    writes what ``route_reference`` writes on a router of its own."""
    from repro.cnn import lenet5
    from repro.rapidwright import ComponentDatabase, PreImplementedFlow

    device = Device.from_name("small")
    flow = PreImplementedFlow(device, component_effort="low", seed=0)
    database = ComponentDatabase(device)
    flow.run(lenet5(), database=database, jobs=1)          # the library, routed as it builds
    seen: list = []
    monkeypatch.setattr(Router, "route", _checked_route(device, seen))
    result = flow.run(lenet5(), database=database, pipeline_target_mhz=LENET_SPLIT_MHZ)
    assert result.extras["pipeline"].inserted >= 2 and len(seen) == 2
    assert seen[1]["routed"] > 0, "the reroute routes the split nets' halves"
    monkeypatch.undo()
    graph = device.routing_graph
    pooled = list(graph._free)

    router = Router(device)
    design = _region_design(device)
    want = _fresh_reference(device, design, design.pblock)
    got = router.route(design)
    assert got.iterations > 1, "workload too easy to run A* in the region"
    assert (vars(got), _bytes(design)) == want

    bad = Design("unplaced")
    bad.new_cell("a", "SLICE", placement=(CLB_COLS[0], 0), luts=1)
    bad.new_cell("b", "SLICE", luts=1)
    bad.connect("n", "a", ["b"])
    with pytest.raises(RoutingError, match="unplaced"):
        router.route(bad)
    with pytest.raises(RoutingError, match="unplaced"):
        Router(device, RoutingGraph(device)).route_reference(bad)

    design = _region_design(device)
    want = _fresh_reference(device, design, design.pblock)
    assert (vars(Router(device).route(design)), _bytes(design)) == want
    assert graph._free == pooled, "every pass handed its buffers back, none were made"
    assert not graph._free[0].history.any(), "history is zero between passes"


def _bytes(design: Design) -> bytes:
    from repro.netlist import encode_design

    return encode_design(design)


@pytest.mark.skipif(not route_native.native_available(), reason="compiled route core unavailable")
def test_two_threads_route_on_one_device_as_they_do_serially():
    import threading

    device = Device.from_name("small")
    designs = [_region_design(device) for _ in range(2)]
    serial = []
    for design in copy.deepcopy(designs):
        serial.append((vars(Router(device).route(design)), _bytes(design)))
    start = threading.Barrier(2)
    got: dict = {}

    def route(k):
        start.wait()
        for _ in range(3):
            design = copy.deepcopy(designs[k])
            got.setdefault(k, []).append((vars(Router(device).route(design)), _bytes(design)))

    threads = [threading.Thread(target=route, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == {k: [serial[k]] * 3 for k in range(2)}
