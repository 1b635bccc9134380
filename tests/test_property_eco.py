"""Property tests for the incremental ECO engine (repro.eco).

Hypothesis over random routed designs and random delta sequences: a
long-lived :class:`EcoEngine` applying each delta incrementally must
agree **bit for bit** with :func:`eco_reference` replaying the same
delta by full re-route/re-time on a pristine copy — same serialized
design (placements, routes, dict order), same timing report, same DRC
findings.  Rejected deltas must fail atomically with the same error
from both engines, an error must not poison the session, and undoing a
whole sequence must walk the design back byte-identically through every
intermediate state.  This mirrors ``test_property_timing.py`` one level
up the stack: there the oracle is a fresh STA, here it is a fresh
*everything*.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnn import group_components
from repro.eco import (
    CellSwap,
    DesignDelta,
    EcoEngine,
    EcoError,
    LayerReplace,
    NetRewire,
    PlacementNudge,
    eco_reference,
)
from repro.fabric import Device, RoutingGraph
from repro.netlist import Design
from repro.netlist.cell import Cell
from repro.netlist.checkpoint import design_from_dict, design_to_dict
from repro.netlist.net import Net
from repro.rapidwright import ComponentDatabase, PreImplementedFlow
from repro.route.pathfinder import Router
from tests.conftest import make_tiny_cnn

SMALL = Device.from_name("small")
GRAPH = RoutingGraph(SMALL)


def report_key(r):
    return (r.period_ps, r.clock_overhead_ps, r.clock_insertion_ps,
            tuple(r.critical_path), r.n_paths)


def drc_key(report):
    if report is None:
        return None
    return [(v.rule_id, v.location.kind, v.location.name, v.message)
            for v in report.violations]


# -- random routed base designs -------------------------------------------


@st.composite
def routed_designs(draw):
    """Small placed-and-routed DAG designs on the small part.

    Nets only drive from lower to higher cell index, so no delta in
    :func:`_random_delta` can close a combinational loop.
    """
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    design = Design(f"eco{seed}")
    n_cells = int(rng.integers(4, 12))
    sites: list[tuple[int, int]] = []
    taken = set()
    for i in range(n_cells):
        while True:
            site = (int(rng.integers(0, SMALL.ncols)), int(rng.integers(0, SMALL.nrows)))
            if site not in taken:
                taken.add(site)
                sites.append(site)
                break
        design.add_cell(Cell(f"c{i}", "SLICE", seq=bool(rng.random() < 0.4),
                             ffs=1, luts=int(rng.integers(1, 4)),
                             comb_depth=int(rng.integers(1, 3)),
                             placement=site))
    for k in range(int(rng.integers(2, 8))):
        di = int(rng.integers(0, n_cells - 1))
        pool = range(di + 1, n_cells)
        sinks = sorted({f"c{int(s)}" for s in rng.choice(pool, size=min(len(pool), int(rng.integers(1, 3))), replace=False)})
        design.add_net(Net(f"n{k}", driver=f"c{di}", sinks=sinks))
    seq = [c.name for c in design.cells.values() if c.seq]
    if seq:
        design.add_net(Net("clk", driver=None, sinks=seq, is_clock=True))
    route = Router(SMALL, GRAPH).route(design)
    if not route.success:
        # tiny random designs on the small part essentially always route;
        # if one doesn't, it is not a useful ECO base
        design.nets = {k: v for k, v in design.nets.items() if v.is_routed or v.is_clock}
    return design, seed


def _random_delta(design: Design, rng, k: int) -> DesignDelta:
    """One random delta — valid or deliberately invalid."""
    names = list(design.cells)
    data_nets = [n for n in design.nets.values() if not n.is_clock]
    occupied = {c.placement for c in design.cells.values() if c.is_placed}
    edits = []
    for _ in range(int(rng.integers(1, 3))):
        op = int(rng.integers(0, 6))
        if op == 0:
            edits.append(CellSwap(names[int(rng.integers(0, len(names)))],
                                  luts=int(rng.integers(1, 5)),
                                  comb_depth=int(rng.integers(1, 4))))
        elif op == 1:  # nudge to a (probably) free site
            site = (int(rng.integers(0, SMALL.ncols)), int(rng.integers(0, SMALL.nrows)))
            edits.append(PlacementNudge(names[int(rng.integers(0, len(names)))], site))
        elif op == 2 and data_nets:  # rewire within the DAG order
            net = data_nets[int(rng.integers(0, len(data_nets)))]
            lo = int(rng.integers(0, len(names) - 1))
            pool = names[lo + 1:]
            sinks = tuple(sorted({pool[int(s)] for s in rng.integers(0, len(pool), size=2)}))
            edits.append(NetRewire(net.name, driver=names[lo], sinks=sinks))
        elif op == 3:  # invalid: ghost cell
            edits.append(CellSwap(f"ghost{k}", luts=1))
        elif op == 4:  # invalid: off-fabric or occupied site
            bad = (999, 999) if rng.random() < 0.5 else next(iter(occupied))
            edits.append(PlacementNudge(names[int(rng.integers(0, len(names)))], bad))
        else:  # swap a seq flag (DAG topology keeps this loop-free)
            edits.append(CellSwap(names[int(rng.integers(0, len(names)))],
                                  seq=bool(rng.random() < 0.5)))
    return DesignDelta(f"d{k}", tuple(edits))


def _check_one(design: Design, engine: EcoEngine, delta: DesignDelta) -> bool:
    """Apply *delta* both ways; assert bit-identity (or error parity).

    Returns True when the delta applied, False when it was rejected.
    """
    pristine = design_to_dict(design)
    try:
        eco = engine.apply(delta)
    except EcoError as inc_exc:
        assert design_to_dict(design) == pristine
        with pytest.raises(EcoError) as ref_exc:
            eco_reference(design_from_dict(pristine), delta, SMALL, graph=GRAPH)
        assert str(ref_exc.value) == str(inc_exc)
        return False
    ref = eco_reference(design_from_dict(pristine), delta, SMALL, graph=GRAPH)
    assert design_to_dict(design) == design_to_dict(ref.design)
    assert report_key(eco.before) == report_key(ref.before)
    assert report_key(eco.after) == report_key(ref.after)
    assert drc_key(eco.drc) == drc_key(ref.drc)
    assert eco.ripped == ref.ripped
    return True


@settings(max_examples=20, deadline=None)
@given(routed_designs(), st.integers(0, 10_000), st.integers(1, 4))
def test_random_delta_sequence_matches_oracle(case, edit_seed, n_deltas):
    design, _seed = case
    rng = np.random.default_rng(edit_seed)
    engine = EcoEngine(design, SMALL, graph=GRAPH, drc="warn")
    for k in range(n_deltas):
        _check_one(design, engine, _random_delta(design, rng, k))


@settings(max_examples=15, deadline=None)
@given(routed_designs(), st.integers(0, 10_000), st.integers(1, 4))
def test_undo_walks_back_through_every_state(case, edit_seed, n_deltas):
    design, _seed = case
    rng = np.random.default_rng(edit_seed)
    engine = EcoEngine(design, SMALL, graph=GRAPH, drc="warn")
    snapshots = [design_to_dict(design)]
    for k in range(n_deltas):
        if _check_one(design, engine, _random_delta(design, rng, k)):
            snapshots.append(design_to_dict(design))
    assert len(engine.history) == len(snapshots) - 1
    for expect in reversed(snapshots[:-1]):
        engine.undo()
        assert design_to_dict(design) == expect
    assert engine.history == []


@settings(max_examples=15, deadline=None)
@given(routed_designs(), st.integers(0, 10_000))
def test_rejected_delta_does_not_poison_the_session(case, edit_seed):
    design, _seed = case
    rng = np.random.default_rng(edit_seed)
    engine = EcoEngine(design, SMALL, graph=GRAPH, drc="warn")
    bad = DesignDelta("bad", (CellSwap("ghost", luts=1),))
    applied = _check_one(design, engine, bad)
    assert not applied
    # the session still tracks and still matches the oracle afterwards
    _check_one(design, engine, _random_delta(design, rng, 99))


# -- flow-scale: random edits on a stitched, routed accelerator -----------


@pytest.fixture(scope="module")
def flow_built():
    net = make_tiny_cnn()
    flow = PreImplementedFlow(SMALL, component_effort="low", seed=0)
    result = flow.run(net)
    components = group_components(net, "layer")
    variants = {}
    for vseed in (2, 3):
        vdb = ComponentDatabase(SMALL)
        vdb.build([components[1]], rom_weights=True, effort="low", seed=vseed)
        variants[vseed] = vdb.get(components[1].signature)
    return design_to_dict(result.design), flow, components, variants


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_flow_design_random_edits_match_oracle(flow_built, edit_seed, n_deltas):
    doc, flow, components, variants = flow_built
    design = design_from_dict(doc)
    rng = np.random.default_rng(edit_seed)
    engine = EcoEngine(design, SMALL, graph=flow.graph, delays=flow.delays,
                       drc="warn")
    stitch = [n.name for n in design.nets.values()
              if not n.is_clock and not n.locked and n.driver and n.sinks]
    for k in range(n_deltas):
        op = int(rng.integers(0, 3))
        if op == 0:
            vseed = (2, 3)[int(rng.integers(0, 2))]
            delta = DesignDelta(
                f"swap{k}", (LayerReplace(components[1].name, variants[vseed]),))
        elif op == 1:
            cells = list(design.cells)
            delta = DesignDelta(
                f"tweak{k}", (CellSwap(cells[int(rng.integers(0, len(cells)))],
                                       comb_depth=int(rng.integers(1, 4))),))
        else:
            net = design.nets[stitch[int(rng.integers(0, len(stitch)))]]
            delta = DesignDelta(
                f"rewire{k}", (NetRewire(net.name, sinks=tuple(net.sinks)),))
        pristine = design_to_dict(design)
        try:
            eco = engine.apply(delta)
        except EcoError as inc_exc:
            assert design_to_dict(design) == pristine
            with pytest.raises(EcoError) as ref_exc:
                eco_reference(design_from_dict(pristine), delta, SMALL,
                              graph=flow.graph, delays=flow.delays)
            assert str(ref_exc.value) == str(inc_exc)
            continue
        ref = eco_reference(design_from_dict(pristine), delta, SMALL,
                            graph=flow.graph, delays=flow.delays)
        assert design_to_dict(design) == design_to_dict(ref.design)
        assert report_key(eco.after) == report_key(ref.after)
        assert drc_key(eco.drc) == drc_key(ref.drc)
