"""A block-backed design ≡ the objects it stands for.

Since PR 23 a component fetched from the database stays a placed
:class:`~repro.netlist.block.Block` — columns plus ``(dcol, drow,
instance)`` — until somebody asks the design for ``cells`` / ``nets``,
and every stage of the online phase has a columnar form that reads
blocks without building a cell.  The object path is still there (it is
what runs the moment anything touches ``design.cells``), so it is the
oracle for all of it:

* the whole online phase on LeNet-5 and on VGG-16 (block granularity),
  block-backed and flattened right after ``compose``, must agree on the
  ``.dcpb`` bytes and on every report the flow returns;
* Hypothesis picks *when* ``top.cells`` is first touched — after
  compose, after a route, at any of the pipeliner's analyses (the revert
  branch included), before power, before encode — and the bytes never
  change;
* a pending ``fetch`` result behaves as the materialized copy did under
  mutation, ``copy.deepcopy``, ``pickle``, ``adopt`` into a flat design
  and a duplicate-name ``adopt``;
* each vectorised fatal DRC rule equals the per-cell loop it replaced —
  kept below, verbatim — on designs with violations injected into blocks
  and into glue.
"""

from __future__ import annotations

import copy
import functools
import pickle
import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.rapidwright.flow as flow_module
from repro import obs
from repro.cnn import group_components, lenet5, vgg16
from repro.drc.engine import DrcContext, all_rules
from repro.fabric import Device, RoutingGraph
from repro.fabric.device import TILE_FOR_CELL
from repro.fabric.pblock import PBlock
from repro.netlist import Design, DesignError, design_to_dict
from repro.netlist.block import Block, sealed
from repro.netlist.codec import DesignImage, encode_design
from repro.netlist.design import _BlockClock
from repro.netlist.net import Net, Port
from repro.netlist.stitch import merge_clock_nets
from repro.power.model import estimate_power
from repro.rapidwright import ComponentDatabase, ComponentPlacer, PreImplementedFlow
from repro.rapidwright.stitcher import compose, compose_reference
from repro.route.native import native_available
from repro.route.pathfinder import Router
from repro.serve.runner import build_result_doc
from repro.spec import JobSpec
from repro.timing.delays import DEFAULT_DELAYS, DelayModel
from repro.timing.incremental import IncrementalSta
from repro.timing.sta import analyze_reference

DEVICE = Device.from_name("ku5p-like")
GRAPH = RoutingGraph(DEVICE)

MODELS = {
    # name: (network, granularity, rom_weights, delay model of the online phase)
    "lenet5": (lenet5, "layer", True, DEFAULT_DELAYS),
    # the benchmark's configuration: four pipeline registers go in
    "vgg16": (vgg16, "block", False, DEFAULT_DELAYS),
    # with unrouted halves estimated this pessimistically the sixth split
    # makes things worse: five registers, then the revert branch
    "vgg16-detour": (vgg16, "block", False, DelayModel(detour_factor=2.0)),
}


@functools.cache
def _library(model: str):
    network, granularity, rom_weights, _delays = MODELS[model.partition("-")[0]]
    dfg = network()
    database = ComponentDatabase(DEVICE)
    database.build(group_components(dfg, granularity), rom_weights=rom_weights,
                   effort="high", seed=0)
    return dfg, database


# -- the online phase, with a hook on every stage boundary -------------------------


@contextmanager
def _events(on_event):
    """Call ``on_event(design)`` after ``compose`` and before every
    ``Router.route``, ``IncrementalSta.analyze`` and ``estimate_power`` of
    a flow run — the points at which something could first ask a
    stitched design for its objects."""
    compose_, route_, analyze_, power_ = (
        flow_module.compose, Router.route, IncrementalSta.analyze, flow_module.estimate_power)
    sessions = []

    def traced_compose(*args, **kwargs):
        result = compose_(*args, **kwargs)
        on_event(result.top)
        return result

    def traced_route(self, design, **kwargs):
        on_event(design)
        return route_(self, design, **kwargs)

    def traced_analyze(self):
        if self not in sessions:
            sessions.append(self)
        on_event(self.design)
        return analyze_(self)

    def traced_power(design, *args, **kwargs):
        on_event(design)
        return power_(design, *args, **kwargs)

    flow_module.compose, Router.route = traced_compose, traced_route
    IncrementalSta.analyze, flow_module.estimate_power = traced_analyze, traced_power
    try:
        yield sessions
    finally:
        flow_module.compose, Router.route = compose_, route_
        IncrementalSta.analyze, flow_module.estimate_power = analyze_, power_


def _online(model: str, touch_at: int | None):
    """One online phase; ``top.cells`` is first touched at event
    *touch_at* (``None``: never before the encoder has run).  Returns
    everything the flow produces and the number of events seen."""
    dfg, database = _library(model)
    _network, granularity, rom_weights, delays = MODELS[model]
    seen = []

    def on_event(design):
        if len(seen) == touch_at:
            design.cells
            assert design.blocks == ()      # the two forms are never both reachable
        seen.append(len(design.blocks))

    flow = PreImplementedFlow(DEVICE, component_effort="high", seed=0)
    flow.delays = delays
    with _events(on_event) as sessions:
        result = flow.run(dfg, granularity=granularity, rom_weights=rom_weights,
                          database=database, pipeline_target_mhz="auto")
    top = result.design
    clock = top.loose_net("clk_net")
    if (touch_at is None or touch_at >= len(seen)) and native_available():
        # nothing in the flow asked for an object (without the compiled
        # router its Python reference runs, which walks design.nets) —
        # the clock net included: a run per block, and a tail holding the
        # registers the pipeliner kept (it cut the reverted one back off)
        assert len(top.blocks) == len(group_components(dfg, granularity))
        glue = [name for part in top.cell_parts() if type(part) is dict for name in part]
        assert type(clock) is _BlockClock
        assert clock.runs()[-1] == [name for name in glue if name.startswith("pipe_reg_")]
        assert len(clock.runs()[-1]) == result.extras["pipeline"].inserted
    blob = encode_design(top)
    timing, pipe = result.timing, result.extras["pipeline"]
    (session,) = sessions
    lengths = clock.lengths()
    sinks, routes = list(clock.sinks), list(clock.routes)     # (the lists: flattens it)
    assert type(clock) is Net and top.loose_net("clk_net") is clock
    return {
        "clock": (lengths, sinks, routes),
        "blob": blob,
        "timing": (timing.period_ps, tuple(timing.critical_path), timing.n_paths,
                   timing.clock_overhead_ps),
        "route": result.route,
        "power": result.power,
        "inserted": pipe.inserted,
        "pipeline": (pipe.before.period_ps, pipe.after.period_ps,
                     tuple(pipe.after.critical_path)),
        "sta": session.stats,
        "metadata": top.metadata,
        "stitch": (result.extras["stitch"].records, result.extras["stitch"].stitch_nets,
                   result.extras["stitch"].pruned_nets),
    }, len(seen)


@functools.cache
def _block_backed(model: str):
    return _online(model, None)


@pytest.mark.parametrize("model", list(MODELS))
def test_online_phase_block_backed_equals_flattened(model):
    blocks, n_events = _block_backed(model)
    flat, _ = _online(model, 0)         # today's path: objects from compose onwards
    assert n_events >= 5                # compose, route, >= 2 analyses, power
    assert blocks == flat
    # the pipeliner split nets, and on the pessimistic model also took one back:
    # before + one analysis per attempt + the final report
    inserted, analyses = blocks["inserted"], blocks["sta"].analyses
    assert (inserted, analyses - inserted) == {
        "lenet5": (0, 2), "vgg16": (4, 2), "vgg16-detour": (5, 3)}[model]
    # and the encoded design is what encoding the objects gives
    design = DesignImage.from_bytes(blocks["blob"]).materialize()
    assert encode_design(design) == blocks["blob"]


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_first_touch_point_never_changes_the_bytes(data):
    """Hypothesis picks the event at which ``top.cells`` is first asked
    for — after compose, before the first route, before any analysis of
    the pipelining loop (a successful split or the reverted one), before
    the re-route, the final analysis or power, or not until encode."""
    model = data.draw(st.sampled_from(sorted(MODELS)))
    want, n_events = _block_backed(model)
    touch_at = data.draw(st.integers(0, n_events))
    got, _ = _online(model, touch_at)
    # (a session that watched the blocks turn into objects recompiles its
    # graph: its memo counters, and only they, tell the difference)
    assert got["blob"] == want["blob"]
    assert {**got, "sta": None} == {**want, "sta": None}


# -- compose ----------------------------------------------------------------------------


def _placed(model: str):
    dfg, database = _library(model)
    _network, granularity, _rom, _delays = MODELS[model]
    comps = group_components(dfg, granularity)
    items = [(c.name, database.footprint(c.signature)) for c in comps]
    placement = ComponentPlacer(DEVICE).place(
        items, [(i - 1, i) for i in range(1, len(items))])
    return comps, database, placement.anchors


@pytest.mark.parametrize("model", ["lenet5", "vgg16"])
def test_compose_flattened_equals_compose_reference(model):
    comps, database, anchors = _placed(model)
    got = compose("top", comps, database, DEVICE, anchors)
    want = compose_reference("top", comps, database, DEVICE, anchors)
    assert len(got.top.blocks) == len(comps)
    assert got.top.n_cells == len(want.top.cells) and got.top.n_nets == len(want.top.nets)
    assert encode_design(got.top) == encode_design(want.top)    # columnar encode
    assert got.top.blocks                                         # ... built nothing
    assert list(got.top.cells) == list(want.top.cells)           # flattens, in dict order
    assert list(got.top.nets) == list(want.top.nets)
    assert got.top.blocks == ()
    assert design_to_dict(got.top) == design_to_dict(want.top)
    assert (got.records, got.stitch_nets, got.pruned_nets) == (
        want.records, want.stitch_nets, want.pruned_nets)


# -- a pending fetch result ---------------------------------------------------------------


def _fetch_pair(instance=None):
    """The same component fetched twice at one anchor: left pending, and
    materialized the way ``fetch`` did before (the oracle)."""
    comps, database, anchors = _placed("lenet5")
    comp = comps[1]
    anchor = anchors[comp.name]
    pending = database.fetch(comp.signature, anchor, instance=instance)
    image = database.records[next(iter(
        k for k, r in database.records.items() if r.signature == comp.signature))].image
    oracle = image.materialize(
        anchor[0] - image.pblock[0], anchor[1] - image.pblock[1], DEVICE.nrows,
        instance=instance)
    return pending, oracle


def test_pending_fetch_is_the_materialized_copy():
    pending, oracle = _fetch_pair("u0")
    assert len(pending.blocks) == 1 and "cells" not in vars(pending)
    assert (pending.n_cells, pending.n_nets) == (len(oracle.cells), len(oracle.nets))
    assert pending.name == oracle.name and pending.pblock == oracle.pblock
    assert pending.metadata == oracle.metadata
    assert repr(pending) == repr(oracle)
    assert pending.blocks                           # none of that built an object
    assert design_to_dict(pending) == design_to_dict(oracle)
    assert pending.blocks == () and "cells" in vars(pending)


def test_pending_fetch_under_mutation():
    pending, oracle = _fetch_pair()
    for design in (pending, oracle):
        first = next(iter(design.cells.values()))
        first.placement = (first.placement[0], first.placement[1] + 1)
        design.new_cell("extra", "SLICE", placement=(0, 0))
        design.connect("extra_net", "extra", [first.name])
        del design.nets[next(iter(design.nets))]
    assert design_to_dict(pending) == design_to_dict(oracle)
    # and before anything touched the objects: construction goes to the glue
    pending, oracle = _fetch_pair()
    for design in (pending, oracle):
        design.new_cell("extra", "SLICE", placement=(0, 0))
        design.connect("extra_net", "extra", [])
        design.add_port(Port("probe", "out", "extra_net"))
        with pytest.raises(DesignError, match="duplicate cell 'extra'"):
            design.new_cell("extra", "SLICE")
        with pytest.raises(DesignError, match="duplicate net 'extra_net'"):
            design.connect("extra_net", None, [])
        with pytest.raises(DesignError, match="unknown net 'nowhere'"):
            design.add_port(Port("bad", "in", "nowhere"))
    assert pending.blocks
    assert design_to_dict(pending) == design_to_dict(oracle)


def test_pending_fetch_copies_and_pickles_as_objects():
    pending, oracle = _fetch_pair("u0")
    clone = copy.deepcopy(pending)
    assert design_to_dict(clone) == design_to_dict(oracle)
    assert next(iter(clone.cells.values())) is not next(iter(pending.cells.values()))
    pending, _ = _fetch_pair("u0")
    assert design_to_dict(pickle.loads(pickle.dumps(pending))) == design_to_dict(oracle)


def test_adopt_into_flat_design_and_duplicate_names():
    results = []
    for fetch in (_fetch_pair, lambda inst: tuple(reversed(_fetch_pair(inst)))):
        top = Design("top")
        top.new_cell("already", "SLICE")            # a flat design with objects in it
        sub = fetch("u0")[0]
        portmap = top.adopt(sub)
        assert top.blocks == () and not sub.cells and not sub.nets
        results.append((design_to_dict(top), portmap))
    assert results[0] == results[1]

    top = Design("top")
    top.adopt(_fetch_pair("u0")[0])
    assert len(top.blocks) == 1
    with pytest.raises(DesignError) as block_error:
        top.adopt(_fetch_pair("u0")[0])             # same instance name again
    flat = Design("top")
    flat.adopt(_fetch_pair("u0")[1])
    with pytest.raises(DesignError) as flat_error:
        flat.adopt(_fetch_pair("u0")[1])
    assert str(block_error.value) == str(flat_error.value)
    assert "duplicate cell 'u0/" in str(flat_error.value)


def test_unsealed_image_is_adopted_as_objects():
    """A component with an unlocked routed net has no columnar form: the
    pipeliner may split it.  ``adopt`` materializes it."""
    _pending, oracle = _fetch_pair()
    net = next(n for n in oracle.nets.values() if n.locked and n.sinks and n.driver)
    net.locked = False
    image = DesignImage.from_design(oracle)
    assert not sealed(image)
    sub = Design.pending(image.frame(instance="u0"), Block(image, 0, 0, DEVICE.nrows, "u0"))
    top = Design("top")
    top.adopt(sub)
    assert top.blocks == () and len(top.cells) == len(oracle.cells)


# -- the vectorised fatal rules against the loops they replaced ---------------------------

FATAL = ("NET-002", "NET-003", "NET-008", "PLC-002", "PLC-003", "PLC-004", "PLC-005")


def fatal_rules_per_object(design, device) -> dict[str, list[tuple]]:
    """The seven fatal rules as the per-cell / per-net loops they were
    until PR 23: ``(kind, name, message, detail)`` in emission order."""
    out: dict[str, list[tuple]] = {rule: [] for rule in FATAL}

    def emit(rule, kind, name, message, detail=""):
        out[rule].append((kind, str(name), message, detail))

    input_nets = {p.net for p in design.ports.values() if p.direction == "in"}
    for net in design.nets.values():
        if net.driver is None and net.name not in input_nets and not net.is_clock:
            emit("NET-002", "net", net.name, f"net {net.name} has no driver and no input port")
    cells = design.cells
    for net in design.nets.values():
        if net.driver is not None and net.driver not in cells:
            emit("NET-003", "net", net.name,
                 f"net {net.name} driven by unknown cell {net.driver!r}")
        for sink in net.sinks:
            if sink not in cells:
                emit("NET-003", "net", net.name, f"net {net.name} sinks unknown cell {sink!r}")
    for port in design.ports.values():
        if port.net not in design.nets:
            emit("NET-008", "port", port.name,
                 f"port {port.name} references unknown net {port.net!r}")
    occupied: dict[tuple[int, int], str] = {}
    for cell in design.cells.values():
        if not cell.is_placed:
            continue
        site = tuple(cell.placement)
        if site in occupied:
            emit("PLC-002", "site", f"({site[0]},{site[1]})",
                 f"site ({site[0]},{site[1]}) double-booked by "
                 f"{occupied[site]} and {cell.name}")
        else:
            occupied[site] = cell.name
    for cell in design.cells.values():
        if not cell.is_placed:
            continue
        col, row = cell.placement
        if not device.in_bounds(col, row):
            continue  # PLC-005's problem
        if device.tile_type(col) != TILE_FOR_CELL[cell.ctype]:
            emit("PLC-003", "cell", cell.name,
                 f"cell {cell.name} ({cell.ctype}) on wrong tile type "
                 f"{device.tile_type_name(col)} at {cell.placement}",
                 detail=f"({col},{row})")
    pblock = design.pblock
    if pblock is not None:
        for cell in design.cells.values():
            if cell.is_placed and not pblock.contains(*cell.placement):
                emit("PLC-004", "cell", cell.name,
                     f"cell {cell.name} at {cell.placement} escapes {pblock}",
                     detail=f"({cell.placement[0]},{cell.placement[1]})")
    for cell in design.cells.values():
        if cell.is_placed and not device.in_bounds(*cell.placement):
            emit("PLC-005", "cell", cell.name,
                 f"cell {cell.name} placed out of bounds at {cell.placement}")
    return out


def _vectorised(design, device) -> dict[str, list[tuple]]:
    ctx = DrcContext(design=design, device=device)
    rules = {r.id: r for r in all_rules()}
    return {
        rule: [(v.location.kind, v.location.name, v.message, v.location.detail)
               for v in ctx.check(rules[rule])]
        for rule in FATAL
    }


def _sealed_component(name: str, n: int, rng, *, bad_every: int) -> DesignImage:
    """A routed, locked *n*-cell component whose placements break rules
    at every *bad_every*-th cell: out of bounds, on a DSP column, on the
    site of its neighbour."""
    clb = [int(c) for c in DEVICE.columns_of(TILE_FOR_CELL["SLICE"])]
    dsp = int(DEVICE.columns_of(TILE_FOR_CELL["DSP48E2"])[0])
    design = Design(name, pblock=PBlock(clb[0], 0, clb[4], 30))
    sites = []
    for i in range(n):
        site = (clb[i % 4], i // 4)
        kind = (i // bad_every) % 4 if i % bad_every == bad_every - 1 else None
        if kind == 0:
            site = (DEVICE.ncols + int(rng.integers(0, 3)), site[1])     # off the grid
        elif kind == 1:
            site = (dsp, site[1])                                        # wrong tile
        elif kind == 2:
            site = sites[-1]                                             # double-booked
        elif kind == 3:
            site = (clb[0], 31 + i)                                      # escapes the pblock
        sites.append(site)
        design.new_cell(f"c{i}", "SLICE", ffs=1, placement=site, locked=True)
    node = lambda site: min(site[0], DEVICE.ncols - 1) * DEVICE.nrows + site[1] % DEVICE.nrows
    for i in range(n - 1):
        net = design.connect(f"n{i}", f"c{i}", [f"c{i + 1}"], locked=True)
        net.routes = [[node(sites[i]), node(sites[i + 1])]]
    design.connect("in_net", None, ["c0"])
    design.connect("clk_net", None, [f"c{i}" for i in range(n)], is_clock=True)
    design.add_port(Port("in_data", "in", "in_net"))
    image = DesignImage.from_design(design)
    assert sealed(image)
    return image


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_vectorised_fatal_rules_equal_their_loops(seed):
    """Violations several per rule, interleaved, inside blocks and in the
    glue between them; the same findings in the same order whether the
    design is block-backed or flat.  Besides: blocks with no fault of
    their own, which PLC-002 may clear whole — one whose box no other
    block's overlaps (a glue cell taking one of its sites, or not) and a
    pair whose boxes overlap and share sites — and a glue cell off the
    grid."""
    rng = np.random.default_rng(seed)
    top = Design("top", pblock=PBlock(0, 0, DEVICE.ncols - 1, 30) if seed % 2 else None)
    clb = [int(c) for c in DEVICE.columns_of(TILE_FOR_CELL["SLICE"])]
    for k in range(int(rng.integers(1, 4))):
        # (the first component is long enough to break every rule)
        image = _sealed_component(f"comp{k}", int(rng.integers(5 if k else 16, 40)), rng,
                                  bad_every=int(rng.integers(2, 7 if k else 3)))
        block = Block(image, 0, 0, DEVICE.nrows, f"u{k}")
        ports = top.adopt(Design.pending(image.frame(instance=f"u{k}"), block))
        # glue between the blocks, some of it broken
        site = (clb[int(rng.integers(0, 4))], int(rng.integers(0, 8)))  # likely taken
        top.new_cell(f"g{k}", "SLICE", placement=site)
        top.new_cell(f"far{k}", "DSP48E2", placement=(clb[0], 300 + k) if k % 2 else None)
        top.connect(f"glue{k}", f"g{k}", [f"u{k}/c0", f"ghost{k}", f"u{k}/nope"])
        top.connect(f"float{k}", None, [f"g{k}"])
        if k % 2:
            top.connect(f"ghostly{k}", f"u{k}/ghost", [])
            top.add_port(Port(f"in{k}", "in", ports["in_data"]))
        else:
            top.remove_net(ports["in_data"])
    for name, drow in (("lone", 150), ("pair0", 200), ("pair1", 200 + int(rng.integers(1, 4)))):
        image = _sealed_component(name, int(rng.integers(8, 24)), rng, bad_every=10 ** 6)
        top.adopt(Design.pending(image.frame(instance=name),
                                 Block(image, 0, drow, DEVICE.nrows, name)))
    if seed % 3:
        top.new_cell("on_lone", "SLICE", placement=top.placement_of(f"lone/c{seed % 8}"))
    top.new_cell("off_grid", "SLICE", placement=(DEVICE.ncols + 2, 5))
    top.ports["lost"] = Port("lost", "out", "no_such_net")
    assert len(top.blocks) >= 4

    got = _vectorised(top, DEVICE)
    assert top.blocks, "the rules flattened the design"
    want = fatal_rules_per_object(top, DEVICE)                   # touches top.cells: flat from here
    assert top.blocks == ()
    assert got == want
    assert _vectorised(top, DEVICE) == want       # the same form serves the flat design
    assert all(want[rule] for rule in FATAL if rule != "PLC-004")
    assert bool(want["PLC-004"]) == (top.pblock is not None)


def _scanned(design, name: str, which: int):
    """Where the cell (*which* 0) or live net (1) called *name* sits, by
    a walk over the design's runs: the glue run, ``(block, row)``, or
    ``None``."""
    for part in design.cell_parts() if which == 0 else design.net_parts():
        if type(part) is dict:
            if name in part:
                return part
        else:
            row = part.cell_row(name) if which == 0 else part.net_row(name)
            if row is not None:
                return part, row
    return None


def _answers_equal_the_scan(top, names) -> None:
    for name in names:
        held = _scanned(top, name, 0)
        assert top.unknown_cells([name]) == (set() if held else {name})
        assert top.block_row(name, 0) == (held if type(held) is tuple else None)
        if held is None:
            with pytest.raises(KeyError):
                top.placement_of(name)
        else:
            assert top.placement_of(name) == (
                held[name].placement if type(held) is dict else held[0].placement(held[1]))
        held = _scanned(top, name, 1)
        assert top.has_net(name) == (held is not None)
        assert top.block_row(name, 1) == (held if type(held) is tuple else None)
        assert top.loose_net(name) is (held[name] if type(held) is dict else None)
        if held is None:
            with pytest.raises(KeyError):
                top.net_pins(name)
        else:
            net = held[name] if type(held) is dict else None
            assert top.net_pins(name) == (
                (net.driver, list(net.sinks), net.width) if net else held[0].pins(held[1]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_name_answers_equal_a_scan_through_edits(data):
    """After any sequence of glue adds and removals, block-net removals,
    clock-net removal and adopts, every name answer of a block-backed
    design (``unknown_cells``, ``placement_of``, ``has_net``,
    ``loose_net``, ``net_pins``, ``block_row``) is what a walk over its
    runs finds — names of glue, of block cells and nets, of blocks not
    adopted yet, of nothing — and a name asked again is not looked up in
    the blocks again."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    images = [_sealed_component(f"comp{k}", int(rng.integers(4, 10)), rng, bad_every=10 ** 6)
              for k in range(3)]
    top = Design("top")
    adopted: list[int] = []

    def adopt(k: int) -> None:
        top.adopt(Design.pending(images[k].frame(instance=f"u{k}"),
                                 Block(images[k], 0, 40 * k, DEVICE.nrows, f"u{k}")))
        adopted.append(k)

    adopt(0)
    glue = [f"g{i}" for i in range(4)] + ["u0/c1", "u1/n0", "u2/c0"]
    names = glue + [f"u{k}/{kind}{i}" for k in range(3) for kind in "cn" for i in range(4)] + [
        "u0/in_net", "u0/clk_net", "nowhere"]
    _answers_equal_the_scan(top, names)
    for op in data.draw(st.lists(st.sampled_from(
            ["cell", "net", "drop net", "drop cell", "clock", "adopt"]), max_size=20)):
        name = data.draw(st.sampled_from(glue + names))
        if op == "cell":
            taken = _scanned(top, name, 0) is not None
            try:
                top.new_cell(name, "SLICE", placement=(int(rng.integers(0, 9)), 0))
                assert not taken
            except DesignError:
                assert taken
        elif op == "net":
            taken = _scanned(top, name, 1) is not None
            try:
                top.connect(name, None, [])
                assert not taken
            except DesignError:
                assert taken
        elif op == "drop net" and _scanned(top, name, 1) is not None:
            top.remove_net(name)
        elif op == "drop cell" and type(_scanned(top, name, 0)) is dict:
            top.remove_cell(name)
        elif op == "clock":
            top.remove_clock_nets()
        elif op == "adopt" and len(adopted) < 3:
            k = len(adopted)                     # (a glue name under its prefix flattens)
            if not any(type(_scanned(top, n, w)) is dict
                       for n in glue + names if n.startswith(f"u{k}/") for w in (0, 1)):
                adopt(k)
        assert top.blocks
        _answers_equal_the_scan(top, names)
    asked: list = []
    row = Block._row
    with mock.patch.object(Block, "_row", lambda self, *a: asked.append(a) or row(self, *a)):
        for name in names:
            top.unknown_cells([name]), top.has_net(name), top.block_row(name, 0)
    assert not asked


def test_validate_raises_the_same_error_either_way():
    rng = np.random.default_rng(7)
    errors = []
    for flatten in (False, True):
        top = Design("top")
        image = _sealed_component("comp", 24, rng, bad_every=3)
        top.adopt(Design.pending(image.frame(instance="u"),
                                 Block(image, 0, 0, DEVICE.nrows, "u")))
        if flatten:
            top.cells
        with pytest.raises(DesignError) as error:
            top.validate(DEVICE)
        errors.append((str(error.value), [str(v) for v in error.value.violations]))
        rng = np.random.default_rng(7)
    assert errors[0] == errors[1]


# -- consumers one by one, on a stitched design -------------------------------------------


def test_consumers_agree_on_a_stitched_vgg():
    """Occupancy, timing and power read off blocks equal the same read
    off the flattened objects (float-for-float)."""
    from repro.route.pathfinder import routed_occupancy

    comps, database, anchors = _placed("vgg16")
    tops = [compose("top", comps, database, DEVICE, anchors).top for _ in range(2)]
    tops[1].cells
    assert tops[0].blocks and not tops[1].blocks
    occ = [routed_occupancy(top, GRAPH) for top in tops]
    assert np.array_equal(occ[0][0], occ[1][0]) and occ[0][1:] == occ[1][1:]
    reports = [IncrementalSta(top, DEVICE, GRAPH).analyze() for top in tops]
    assert reports[0] == reports[1]
    power = [estimate_power(top, DEVICE, reports[0].fmax_mhz, GRAPH) for top in tops]
    assert power[0] == power[1]
    assert tops[0].blocks


@pytest.mark.skipif(not native_available(),
                    reason="the Python reference router walks design.nets")
@pytest.mark.parametrize("model", ["lenet5", "vgg16"])
def test_resource_usage_and_the_result_doc_build_no_object(model):
    """``resource_usage`` / ``utilization`` read each block's per-image
    totals and equal the flattened design's, key order included; serve's
    result doc of a pre-implemented run materializes nothing."""
    dfg, database = _library(model)
    _network, granularity, rom_weights, delays = MODELS[model]
    flow = PreImplementedFlow(DEVICE, component_effort="high", seed=0)
    flow.delays = delays
    result = flow.run(dfg, granularity=granularity, rom_weights=rom_weights,
                      database=database, pipeline_target_mhz="auto")
    result.extras["flow"] = flow
    spec = JobSpec(model=model, granularity=granularity, stream_weights=not rom_weights,
                   pipeline="auto")
    tracer = obs.Tracer(obs.InMemorySink())
    with tracer.activate():
        usage, util = result.design.resource_usage(), result.utilization(DEVICE)
        doc = build_result_doc(spec, result, 0.0)
    assert "codec.materialize" not in tracer.metrics
    assert result.design.blocks
    design = result.design
    assert (doc["cells"], doc["nets"]) == (len(design.cells), len(design.nets))
    assert not design.blocks
    assert list(design.resource_usage().items()) == list(usage.items())
    assert list(result.utilization(DEVICE).items()) == list(util.items())
    assert build_result_doc(spec, result, 0.0) == doc


# -- what an image keeps between runs: keyed by what it depends on ---------------------------
#
# Everything below is kept on the immutable image (``DesignImage.derived``)
# and read back by every later instance.  The oracles are the ones above:
# the flattened objects, ``analyze_reference``, ``from_design`` of the
# flattened design.


def _two_column_component() -> Design:
    """Two flops three columns apart and a routed, locked net between
    them: at an anchor that puts an I/O column in between, the route
    crosses it; elsewhere it does not."""
    rows = DEVICE.nrows
    design = Design("span", pblock=PBlock(0, 0, 3, 1))
    design.new_cell("a", "SLICE", ffs=1, seq=True, placement=(0, 0), locked=True)
    design.new_cell("b", "SLICE", ffs=1, seq=True, placement=(3, 1), locked=True)
    net = design.connect("ab", "a", ["b"], width=4, locked=True)
    net.routes = [[0 * rows + 0, 3 * rows + 0, 3 * rows + 1]]      # one hop over columns 1, 2
    design.connect("in_net", None, ["a"])
    design.connect("out_net", "b", [])
    design.add_port(Port("in_data", "in", "in_net"))
    design.add_port(Port("out_data", "out", "out_net"))
    return design


def test_route_metrics_follow_the_io_columns_not_the_anchor():
    """One image at four anchors: two that differ only in rows share an
    entry, one across an I/O column gets its own — and timing and power
    read off the blocks are what the flattened objects give."""
    from repro.timing.sta import analyze_reference

    io = int(DEVICE.io_columns[0])
    assert {DEVICE.tile_type(c) for c in (io - 2, io + 1, 0, 3, 7, 10)} == \
        {TILE_FOR_CELL["SLICE"]}
    database = ComponentDatabase(DEVICE)
    database.put(("span",), _two_column_component())
    anchors = {"plain": (0, 0), "rows": (0, 40), "cols": (7, 5), "io": (io - 2, 9)}

    def top():
        design = Design("top")
        for name, anchor in anchors.items():
            ports = design.adopt(database.fetch(("span",), anchor, instance=name))
            design.add_port(Port(f"in_{name}", "in", ports["in_data"]))
            design.add_port(Port(f"out_{name}", "out", ports["out_data"]))
        return design

    blocks, flat = top(), top()
    flat.cells
    assert len(blocks.blocks) == 4 and not flat.blocks
    report = IncrementalSta(blocks, DEVICE, GRAPH).analyze()
    assert report == analyze_reference(flat, DEVICE, GRAPH)
    assert report == IncrementalSta(flat, DEVICE, GRAPH).analyze()
    assert estimate_power(blocks, DEVICE, report.fmax_mhz, GRAPH) == \
        estimate_power(flat, DEVICE, report.fmax_mhz, GRAPH)
    assert blocks.blocks, "reading the blocks flattened them"

    (record,) = database.records.values()
    kept = {key: value for key, value in record.image._derived.items()
            if key[0] == "route_metrics"}
    assert len(kept) == 2                       # no I/O column under the routes / one
    per_anchor = {b.instance: b.route_metrics(GRAPH) for b in blocks.blocks}
    assert [int(per_anchor[name][1][0]) for name in anchors] == [0, 0, 0, 1]
    assert per_anchor["plain"][0] is per_anchor["rows"][0] is per_anchor["cols"][0]
    assert per_anchor["io"][0] is not per_anchor["plain"][0]
    for block in blocks.blocks:                 # and each equals a fresh measurement
        rows = block.timing_rows()
        tiles, crossings = GRAPH.path_metrics_csr(block.route_nodes(), rows.start, rows.length)
        assert np.array_equal(tiles, per_anchor[block.instance][0])
        assert np.array_equal(crossings, per_anchor[block.instance][1])


def test_two_instances_of_one_image_get_their_own_name_tables():
    """A network that repeats a layer places one checkpoint three times
    (LeNet-5 by layer repeats none): each instance's names are kept under
    its own prefix, and the encoded design is the flattened one's."""
    from repro.cnn import Conv2D, DFG, Input, ReLU

    layers = [Input("in", shape=(2, 16, 16))]
    for i in range(1, 4):
        layers += [Conv2D(f"c{i}", filters=2, kernel=3, padding="same"), ReLU(f"r{i}")]
    comps = group_components(DFG.sequential("repnet", layers), "layer")
    database = ComponentDatabase(DEVICE)
    database.build(comps, effort="low", seed=0)
    (record,) = database.records.values()
    assert len(comps) == 3
    placement = ComponentPlacer(DEVICE).place(
        [(c.name, database.footprint(c.signature)) for c in comps], [(0, 1), (1, 2)])
    top = compose("top", comps, database, DEVICE, placement.anchors).top
    blob = encode_design(top)
    assert len(top.blocks) == 3 and all(b.image is record.image for b in top.blocks)
    tables = [key[1] for key in record.image._derived if key[0] == "name_table"]
    assert sorted(tables) == sorted(f"{c.name}/" for c in comps)
    for block in top.blocks:
        raw, lens, _shared = block.packed_names(0)
        assert b"".join(raw).decode() == "".join(block.cell_names())
        assert np.concatenate(lens).tolist() == [len(name) for name in block.cell_names()]
        assert all(name.startswith(block.prefix) for name in block.cell_names())
    top.cells
    assert DesignImage.from_design(top).to_bytes() == blob


@pytest.mark.skipif(not native_available(),
                    reason="the Python reference router walks design.nets")
def test_first_and_second_run_encode_the_same_bytes():
    """The first run fills what the images keep, the second reads it
    back: same bytes, the bytes of the flattened design, and the same
    string table once somebody asks the packed one for its strings."""
    dfg, database = _library("lenet5")
    blobs, images = [], []
    for _ in range(2):
        result = PreImplementedFlow(DEVICE, component_effort="high", seed=0).run(
            dfg, database=database, pipeline_target_mhz="auto")
        blobs.append(encode_design(result.design))
        images.append(DesignImage.from_design(result.design))
        assert result.design.blocks
    assert blobs[0] == blobs[1]
    result.design.cells
    flat = DesignImage.from_design(result.design)
    assert flat.to_bytes() == blobs[1]
    assert images[1]._strings is None           # held packed, decoded on request:
    assert images[1].strings == flat.strings
    assert images[1].to_bytes() == blobs[1]


def _clean_component(name: str, n: int) -> DesignImage:
    return _sealed_component(name, n, np.random.default_rng(0), bad_every=10 * n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_string_table_of_blocks_and_glue_is_the_flattened_one(data):
    """Names that collide across the forms — a glue cell called what a
    block's net is called, a glue net called what a block's cell is
    called, a net of an image called what one of its cells is, a port on
    a block's net, a clock net that lists a block's cells whole or
    shuffled: whatever the encoder hands out as a run or looks up, the
    table (and every index into it) is the one the objects produce."""
    n_blocks = data.draw(st.integers(1, 3))
    shared_names = data.draw(st.booleans())
    sizes = [data.draw(st.integers(4, 9)) for _ in range(n_blocks)]
    glue_cells = data.draw(st.lists(st.sampled_from(
        ["g0", "g1", "u0/n1", "u0/zzz", "u1/n0", "SLICE", "u0", "clk_net"]),
        unique=True, max_size=4))
    glue_nets = data.draw(st.lists(st.sampled_from(
        ["w0", "u0/c0", "u1/c2", "u0/in_net", "g0", "u0/n1", "SLICE"]),
        unique=True, max_size=4))
    port_names = data.draw(st.lists(st.sampled_from(["p0", "u0/c1", "u0/n2", "w0"]),
                                    unique=True, max_size=3))
    clock = data.draw(st.sampled_from(["merged", "shuffled", "none"]))
    shuffle_seed = data.draw(st.integers(0, 2 ** 16))
    remove_first_input = data.draw(st.booleans())

    def build() -> Design:
        top = Design("top")
        ports = []
        for k, n in enumerate(sizes):
            image = _clean_component(f"comp{k}", n)
            if shared_names and k == 0:
                design = image.materialize()
                design.connect("c1", "c1", ["c2"], locked=True).routes = \
                    [list(design.nets["n1"].routes[0])]
                image = DesignImage.from_design(design)
                assert sealed(image)
            block = Block(image, 0, 40 * k, DEVICE.nrows, f"u{k}")
            ports.append(top.adopt(Design.pending(image.frame(instance=f"u{k}"), block)))
        if remove_first_input:
            top.remove_net(ports[0]["in_data"])
        for name in glue_cells:
            top.new_cell(name, "SLICE")
        for i, name in enumerate(glue_nets):
            if top.has_net(name):
                continue
            sinks = [f"u{i % n_blocks}/c{i}", *glue_cells[:1]]
            top.connect(name, f"u0/c{1 + i}", sinks)
        for name in port_names:
            top.ports[name] = Port(name, "in", ports[-1]["in_data"] if name != "w0" else "p")
        if clock == "merged":
            merge_clock_nets(top)
        elif clock == "shuffled":
            sinks = top.seq_cell_names()
            random.Random(shuffle_seed).shuffle(sinks)
            top.remove_clock_nets()
            top.connect("clk_net2", None, sinks, is_clock=True)
        return top

    blocks, flat = build(), build()
    flat.cells
    assert len(blocks.blocks) == n_blocks and not flat.blocks
    got, want = DesignImage.from_design(blocks), DesignImage.from_design(flat)
    assert blocks.blocks, "encoding flattened the design"
    assert got.to_bytes() == want.to_bytes()
    assert got.strings == want.strings
    assert encode_design(blocks) == want.to_bytes()      # and again, from what is kept now


def test_block_verdicts_clear_legal_blocks_and_find_the_rest():
    """Clean images at anchors good and bad: on a DSP column, off the
    grid, on top of each other.  A block the rules clear whole is never
    looked at cell by cell; what they report is what the loops report."""
    clb = [int(c) for c in DEVICE.columns_of(TILE_FOR_CELL["SLICE"])]
    dsp = int(DEVICE.columns_of(TILE_FOR_CELL["DSP48E2"])[0])
    image = _clean_component("comp", 12)
    top = Design("top", pblock=PBlock(0, 0, DEVICE.ncols - 1, 200))
    shifts = {"ok0": (0, 0), "ok1": (0, 50), "stacked": (0, 50), "dsp": (dsp - clb[0], 100),
              "off": (0, DEVICE.nrows - 1), "out_of_pblock": (0, 250)}
    for name, (dcol, drow) in shifts.items():
        top.adopt(Design.pending(image.frame(instance=name),
                                 Block(image, dcol, drow, DEVICE.nrows, name)))
    top.new_cell("glue", "SLICE", placement=(clb[0], 0))      # on ok0's first cell
    assert [b.on_legal_sites(DEVICE) for b in top.blocks] == \
        [True, True, True, False, False, True]
    got = _vectorised(top, DEVICE)
    assert top.blocks, "the rules flattened the design"
    want = fatal_rules_per_object(top, DEVICE)
    assert got == want
    assert all(want[rule] for rule in ("PLC-002", "PLC-003", "PLC-004", "PLC-005"))
    assert _vectorised(top, DEVICE) == want


def test_occupancy_after_a_block_loses_a_routed_net():
    """The per-node charges an image keeps stand for all its nets; a
    block that lost one which owned wires is worked out afresh."""
    from repro.route.pathfinder import routed_occupancy

    comps, database, anchors = _placed("lenet5")
    tops = [compose("top", comps, database, DEVICE, anchors).top for _ in range(2)]
    flat = compose("top", comps, database, DEVICE, anchors).top
    flat.cells
    victim = next(n.name for n in flat.nets.values()
                  if n.locked and len(n.routes) > 1 and all(r and len(r) > 2 for r in n.routes))
    for top in (tops[1], flat):
        top.remove_net(victim)
    assert tops[0].blocks and tops[1].blocks
    whole, less, want = (routed_occupancy(top, GRAPH) for top in (*tops, flat))
    assert np.array_equal(less[0], want[0]) and less[1:] == want[1:]
    assert less[2] < whole[2] and not np.array_equal(less[0], whole[0])
    assert tops[1].blocks


# -- the merged clock net, held as runs -------------------------------------------------
#
# On a block-backed design ``merge_clock_nets`` builds a clock net that
# stands for each block's sequential cells by the block itself, plus a
# tail the pipeliner appends registers to and cuts back on a revert.  Its
# oracle is the plain net the same calls build on the flattened twin.


def _component(name: str, n: int, seq_every: int) -> DesignImage:
    """A sealed *n*-cell chain on CLB columns: routed, locked, every
    *seq_every*-th cell a register and the ones between combinational
    (0: every cell a register)."""
    clb = [int(c) for c in DEVICE.columns_of(TILE_FOR_CELL["SLICE"])]
    design = Design(name, pblock=PBlock(clb[0], 0, clb[3], 30))
    sites = [(clb[i % 4], i // 4) for i in range(n)]
    for i, site in enumerate(sites):
        seq = not seq_every or i % seq_every == 0
        design.new_cell(f"c{i}", "SLICE", luts=1, ffs=1, seq=seq, placement=site, locked=True)
    node = lambda site: site[0] * DEVICE.nrows + site[1]
    for i in range(n - 1):
        net = design.connect(f"n{i}", f"c{i}", [f"c{i + 1}"], width=1 + i % 3, locked=True)
        net.routes = [[node(sites[i]), node(sites[i + 1])]]
    design.connect("in_net", None, ["c0"])
    design.connect("out_net", f"c{n - 1}", [])
    design.connect("clk_net", None, [f"c{i}" for i in range(n)], is_clock=True)
    design.add_port(Port("in_data", "in", "in_net"))
    design.add_port(Port("out_data", "out", "out_net"))
    image = DesignImage.from_design(design)
    assert sealed(image)
    return image


def _stitched(shapes: list[tuple[int, int]], glue_regs: list[int], flat: bool) -> Design:
    """Blocks ``u0, u1, ...`` of the *shapes* ``(cells, seq_every)``
    chained by glue nets; ``glue_regs[k]`` glue registers after block *k*
    (so glue runs sit between blocks), each fed from its block and
    feeding back into it (so arrivals inside a block follow the glue);
    the clock nets merged — flattened first for the *flat* twin, so its
    clock net is a plain one."""
    top = Design("top")
    for k, (n, seq_every) in enumerate(shapes):
        image = _component(f"comp{k}", n, seq_every)
        block = Block(image, 0, 40 * k, DEVICE.nrows, f"u{k}")
        ports = top.adopt(Design.pending(image.frame(instance=f"u{k}"), block))
        if k:
            top.remove_net(ports["in_data"])
            top.connect(f"link{k}", f"u{k - 1}/c{shapes[k - 1][0] - 1}", [f"u{k}/c0"], width=2)
        for i in range(glue_regs[k]):
            top.new_cell(f"g{k}_{i}", "SLICE", ffs=1, seq=i % 2 == 0, placement=(3, 40 * k + 20 + i))
            top.connect(f"g{k}_{i}_in", f"u{k}/c1", [f"g{k}_{i}"])
            top.connect(f"g{k}_{i}_out", f"g{k}_{i}", [f"u{k}/c2"])    # back into the block
    if flat:
        top.cells
    merge_clock_nets(top)
    return top


def _timing_outcome(analyze) -> tuple:
    report = analyze()
    return report.period_ps, tuple(report.critical_path), report.n_paths


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_clock_runs_equal_the_flat_clock_net(data):
    """Whatever the runs, the registers appended and the cuts: the same
    bytes, the same fatal findings (a tail sink naming no cell included)
    and the same timing as the plain clock net of the flattened twin —
    and reading the lists makes a plain net with exactly those lists."""
    shapes = data.draw(st.lists(st.tuples(st.integers(3, 9), st.sampled_from([0, 3, 4])),
                                min_size=1, max_size=3))
    glue_regs = data.draw(st.lists(st.integers(0, 2), min_size=len(shapes), max_size=len(shapes)))
    script = data.draw(st.lists(st.tuples(
        st.sampled_from(["register", "ghost", "cut", "cut_into_runs", "mark"]),
        st.integers(0, 2 ** 16)), max_size=8))

    def run(flat: bool) -> Design:
        top = _stitched(shapes, glue_regs, flat)
        clock = top.loose_net("clk_net")
        marks = [clock.lengths()]
        for step, (op, arg) in enumerate(script):
            if op == "register":                 # what the pipeliner does
                top.new_cell(f"r{step}", "SLICE", ffs=1, seq=True, placement=(5, arg % 100))
                clock.add_sink(f"r{step}")
            elif op == "ghost":
                clock.add_sink(f"ghost{arg % 3}")
            elif op == "mark":
                marks.append(clock.lengths())
            elif op == "cut":                    # the revert: back to a mark
                clock.truncate(marks[arg % len(marks)])
            elif op == "cut_into_runs":          # past the tail: the lists take over
                n = clock.lengths()[0]
                clock.truncate((max(0, n - 1 - arg % 4),) * 2)
        return top

    blocks, flat = run(False), run(True)
    assert blocks.blocks and not flat.blocks
    clock, want = blocks.loose_net("clk_net"), flat.loose_net("clk_net")
    assert type(want) is Net and clock.lengths() == want.lengths()
    if not any(op == "cut_into_runs" for op, _ in script):
        assert type(clock) is _BlockClock
    assert encode_design(blocks) == encode_design(flat)
    assert _vectorised(blocks, DEVICE) == _vectorised(flat, DEVICE)
    assert _timing_outcome(IncrementalSta(blocks, DEVICE, GRAPH).analyze) == \
        _timing_outcome(lambda: analyze_reference(flat, DEVICE, GRAPH))
    assert blocks.blocks, "the checks flattened the design"
    twin = copy.deepcopy(clock)                  # copies are of the lists
    assert type(twin) is Net and (twin.sinks, twin.routes) == (want.sinks, want.routes)
    assert (clock.sinks, clock.routes) == (want.sinks, want.routes)
    assert type(clock) is Net and clock.is_routed == want.is_routed
    assert blocks.blocks


# -- timing chunks under a random edit script ---------------------------------------------
#
# ``TimingGraph`` keeps each block's rows as a chunk of its own — the
# arrays the image keeps — and splices only glue rows on a re-sync.  The
# oracle is ``analyze_reference`` on a flattened twin given the same edits.


def _split(top: Design, name: str, reg: str, site) -> tuple:
    """The pipeliner's split of net *name* through register *reg*; returns
    what the revert needs."""
    net = top.loose_net(name)
    clocks = [(clock, clock.lengths()) for clock in top.clock_nets()]
    top.new_cell(reg, "SLICE", ffs=1, seq=True, placement=site)
    top.remove_net(name)
    top.connect(name + "__a", net.driver, [reg], width=net.width)
    top.connect(name + "__b", reg, list(net.sinks), width=net.width)
    for clock, _ in clocks:
        clock.add_sink(reg)
    return net, reg, clocks


def _revert(top: Design, split: tuple) -> None:
    net, reg, clocks = split
    top.remove_net(net.name + "__a")
    top.remove_net(net.name + "__b")
    top.remove_cell(reg)
    for clock, lengths in clocks:
        clock.truncate(lengths)
    top.add_net(net)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 16), st.lists(st.tuples(
    st.sampled_from(["split", "revert", "reroute", "unroute", "remove_glue", "remove_block_net",
                     "move"]),
    st.integers(0, 2 ** 16)), min_size=1, max_size=10))
def test_timing_chunks_under_random_edits(seed, script):
    """Split, insert a register, revert, reroute, remove a glue net or a
    block's net, move a glue cell: after every edit the session's report
    is ``analyze_reference``'s on the flattened twin, and a block's chunk
    keeps the very arrays its image keeps."""
    rng = np.random.default_rng(seed)
    # all registers / runs of three combinational cells, the critical
    # ones until an edit adds something worse
    shapes = [(8, 0), (9, 4), (8, 0)]
    tops = [_stitched(shapes, [1, 1, 2], flat) for flat in (False, True)]
    session = IncrementalSta(tops[0], DEVICE, GRAPH)
    splits: list[list] = [[], []]
    assert _timing_outcome(session.analyze) == \
        _timing_outcome(lambda: analyze_reference(tops[1], DEVICE, GRAPH))
    for step, (op, arg) in enumerate(script):
        glue = sorted(n.name for n in tops[0].loose_nets()
                      if not n.is_clock and n.driver is not None and n.sinks)
        pending = {name for net, _, _ in splits[0] for name in (net.name + "__a", net.name + "__b")}
        loose = [name for name in glue if name not in pending]
        route = [int(x) for x in rng.integers(0, GRAPH.n_nodes, size=int(rng.integers(2, 6)))]
        site = (int(rng.integers(0, DEVICE.ncols)), int(rng.integers(0, DEVICE.nrows)))
        block_nets = [name for name in tops[0].blocks[arg % 3].net_names_where(
            driverless=False, clock=False, sinkless=False)]
        for top, done in zip(tops, splits):
            if op == "split" and loose:
                done.append(_split(top, loose[arg % len(loose)], f"r{step}", site))
            elif op == "revert" and done:
                _revert(top, done.pop())
            elif op in ("reroute", "unroute") and glue:
                net = top.loose_net(glue[arg % len(glue)])
                net.routes[arg % len(net.sinks)] = list(route) if op == "reroute" else None
            elif op == "remove_glue" and loose:
                top.remove_net(loose[arg % len(loose)])
            elif op == "remove_block_net" and block_nets:
                top.remove_net(block_nets[arg % len(block_nets)])
            elif op == "move" and done:                 # a split register is glue
                reg = done[-1][1]
                next(part[reg] for part in top.cell_parts()
                     if type(part) is dict and reg in part).placement = site
        before = {c.block: (c.rows, c.delay) for c in session._tg.chunks if c.block.live_rows() is None}
        got = _timing_outcome(session.analyze)
        assert got == _timing_outcome(lambda: analyze_reference(tops[1], DEVICE, GRAPH))
        for chunk in session._tg.chunks:
            if chunk.block in before:
                assert (chunk.rows, chunk.delay) == before[chunk.block]
                assert chunk.rows is before[chunk.block][0] and chunk.delay is before[chunk.block][1]
        assert tops[0].blocks, "timing flattened the design"
    assert encode_design(tops[0]) == encode_design(tops[1])
