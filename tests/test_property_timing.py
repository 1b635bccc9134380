"""Property tests for incremental STA (repro.timing.graph / incremental).

Hypothesis over random designs and random edit sequences on the small
part: a long-lived :class:`IncrementalSta` session analyzed after every
edit must agree **bit for bit** with :func:`analyze_reference` run fresh
on the same design — same period, same critical path, same ``n_paths`` —
and must fail identically on unanalyzable designs (same
:class:`TimingError` message for combinational loops, a ``KeyError`` of
the same class for dangling driver references).

Also pins down flow-level timing determinism: a ``jobs>1``
:meth:`ComponentDatabase.build` stores the same Fmax per component as a
serial build, and re-analyzing the stored checkpoints with either engine
reproduces it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnn import group_components
from repro.fabric import Device, RoutingGraph
from repro.netlist import Design
from repro.netlist.cell import Cell
from repro.netlist.net import Net
from repro.rapidwright import ComponentDatabase
from repro.timing import IncrementalSta, TimingError, analyze_reference
from tests.conftest import make_tiny_cnn

SMALL = Device.from_name("small")
GRAPH = RoutingGraph(SMALL)

#: Cell names nets may dangle on (never added to the design).
GHOSTS = ("ghost0", "ghost1")


def _outcome(fn):
    """Normalized result of one analysis: value tuple or error shape.

    ``TimingError`` messages are compared verbatim (both engines build
    them identically); ``KeyError`` args are not (with several broken
    nets the engines may trip over different ones first).
    """
    try:
        r = fn()
        return ("ok", r.period_ps, tuple(r.critical_path), r.n_paths)
    except TimingError as e:
        return ("loop", str(e))
    except KeyError:
        return ("keyerror",)


def _check(session: IncrementalSta, design: Design) -> None:
    inc = _outcome(session.analyze)
    ref = _outcome(lambda: analyze_reference(design, SMALL, GRAPH))
    assert inc == ref


def _random_route(rng) -> list[int]:
    n = int(rng.integers(2, 7))
    return [int(x) for x in rng.integers(0, GRAPH.n_nodes, size=n)]


def _random_placement(rng):
    if rng.random() < 0.15:
        return None
    return (int(rng.integers(0, SMALL.ncols)), int(rng.integers(0, SMALL.nrows)))


@st.composite
def timing_designs(draw, *, routed: bool = False):
    """Random mixed seq/comb designs, possibly with loops and danglers.

    ``routed=True`` routes every sink and leaves no danglers — the shape
    of a flow's design at its first analysis, where every edge delay
    comes out of one batched path measurement.
    """
    seed = draw(st.integers(0, 10_000))
    # allow dangling endpoint references
    broken = False if routed else draw(st.booleans())
    rng = np.random.default_rng(seed)
    design = Design(f"ta{seed}")
    n_cells = int(rng.integers(3, 15))
    names = []
    for i in range(n_cells):
        design.add_cell(
            Cell(
                f"c{i}",
                "SLICE",
                seq=bool(rng.random() < 0.45),
                comb_depth=int(rng.integers(1, 4)),
                placement=_random_placement(rng),
            )
        )
        names.append(f"c{i}")
    pool = list(names) + (list(GHOSTS) if broken else [])
    for k in range(int(rng.integers(1, 10))):
        driver = pool[int(rng.integers(0, len(pool)))]
        sinks = sorted({pool[int(s)] for s in rng.integers(0, len(pool), size=int(rng.integers(1, 4)))})
        net = Net(f"n{k}", driver=driver, sinks=sinks)
        for i in range(len(sinks)):
            if routed or rng.random() < 0.4:
                net.routes[i] = _random_route(rng)
        design.add_net(net)
    seq_sinks = [n for n in names if design.cells[n].seq]
    if seq_sinks and rng.random() < 0.7:
        design.add_net(Net("clk", driver=None, sinks=seq_sinks, is_clock=True))
    return design, seed, broken


def _apply_edit(design: Design, rng, k: int, broken: bool) -> None:
    """One random in-flow mutation (placement, route, or netlist edit)."""
    cells = [c for c in design.cells.values()]
    nets = [n for n in design.nets.values() if not n.is_clock]
    op = int(rng.integers(0, 10))
    if op == 0 and cells:  # move a cell
        cells[int(rng.integers(0, len(cells)))].placement = _random_placement(rng)
    elif op == 1 and nets:  # route one sink (fresh list: the memo contract)
        net = nets[int(rng.integers(0, len(nets)))]
        if net.sinks:
            net.routes[int(rng.integers(0, len(net.sinks)))] = _random_route(rng)
    elif op == 2 and nets:  # rip up one sink's route
        net = nets[int(rng.integers(0, len(nets)))]
        if net.sinks:
            net.routes[int(rng.integers(0, len(net.sinks)))] = None
    elif op == 3 and nets and cells:  # grow a net in place
        nets[int(rng.integers(0, len(nets)))].add_sink(
            cells[int(rng.integers(0, len(cells)))].name
        )
    elif op == 4 and nets and cells:  # replace a net object under its name
        old = nets[int(rng.integers(0, len(nets)))]
        del design.nets[old.name]
        driver = cells[int(rng.integers(0, len(cells)))].name
        sinks = sorted({c.name for c in cells if rng.random() < 0.3} - {driver})
        design.add_net(Net(old.name, driver=driver, sinks=sinks))
    elif op == 5 and cells:  # add a brand-new net
        pool = [c.name for c in cells] + (list(GHOSTS) if broken else [])
        driver = pool[int(rng.integers(0, len(pool)))]
        sinks = sorted({pool[int(s)] for s in rng.integers(0, len(pool), size=2)})
        design.add_net(Net(f"e{k}", driver=driver, sinks=sinks))
    elif op == 6 and nets:  # delete a net
        del design.nets[nets[int(rng.integers(0, len(nets)))].name]
    elif op == 7:  # add a cell (may resolve a dangling reference)
        name = GHOSTS[0] if broken and rng.random() < 0.3 else f"x{k}"
        if name not in design.cells:
            design.add_cell(
                Cell(name, "SLICE", seq=bool(rng.random() < 0.5),
                     placement=_random_placement(rng))
            )
    elif op == 8 and len(cells) > 2:  # delete a cell, leaving danglers
        del design.cells[cells[int(rng.integers(0, len(cells)))].name]
    elif op == 9 and nets:  # pipeline-style split through a new register
        net = nets[int(rng.integers(0, len(nets)))]
        if net.driver in design.cells and net.sinks:
            reg = Cell(f"r{k}", "SLICE", seq=True, placement=_random_placement(rng))
            design.add_cell(reg)
            del design.nets[net.name]
            design.add_net(Net(f"{net.name}__a", driver=net.driver, sinks=[reg.name]))
            design.add_net(Net(f"{net.name}__b", driver=reg.name, sinks=list(net.sinks)))
            clk = design.nets.get("clk")
            if clk is not None:
                clk.add_sink(reg.name)


@settings(max_examples=30, deadline=None)
@given(timing_designs())
def test_fresh_session_matches_reference(case):
    design, _seed, _broken = case
    _check(IncrementalSta(design, SMALL, GRAPH), design)


@settings(max_examples=30, deadline=None)
@given(timing_designs(routed=True))
def test_routed_first_analysis_times_every_edge_once(case):
    """The cold compile of a routed design: same report as the oracle
    (or the same loop error), and the delay memo counts exactly one
    computation per data edge."""
    design, _seed, _broken = case
    session = IncrementalSta(design, SMALL, GRAPH)
    inc = _outcome(session.analyze)
    assert inc == _outcome(lambda: analyze_reference(design, SMALL, GRAPH))
    if inc[0] == "ok":  # a raised analysis keeps no stats
        edges = sum(
            len(net.sinks) for net in design.nets.values() if not net.is_clock
        )
        assert (session.stats.memo_misses, session.stats.memo_hits) == (edges, 0)


@settings(max_examples=30, deadline=None)
@given(timing_designs(), st.integers(0, 10_000), st.integers(1, 8))
def test_session_tracks_random_edit_sequence(case, edit_seed, n_edits):
    design, _seed, broken = case
    rng = np.random.default_rng(edit_seed)
    session = IncrementalSta(design, SMALL, GRAPH)
    _check(session, design)
    for k in range(n_edits):
        _apply_edit(design, rng, k, broken)
        _check(session, design)


def _has_danglers(design: Design) -> bool:
    for net in design.nets.values():
        if net.is_clock:
            continue
        if net.driver is not None and net.driver not in design.cells:
            return True
        if any(s not in design.cells for s in net.sinks):
            return True
    return False


@settings(max_examples=20, deadline=None)
@given(timing_designs(), st.integers(0, 10_000))
def test_unchanged_design_is_answered_from_cache(case, _unused):
    design, _seed, _broken = case
    session = IncrementalSta(design, SMALL, GRAPH)
    first = _outcome(session.analyze)
    again = _outcome(session.analyze)
    assert first == again
    # Well-formed designs answer the second call from the report memo;
    # designs with dangling endpoints are re-checked every sync (their
    # error status depends on routes), so no caching is promised there.
    if first[0] == "ok" and not _has_danglers(design):
        assert session.stats.cached >= 1


def test_session_recovers_after_error():
    """An analysis error must not poison the session: fixing the design
    (or un-breaking the edit) yields correct reports again."""
    design = Design("recover")
    design.add_cell(Cell("a", "SLICE", seq=True, placement=(0, 0)))
    design.add_cell(Cell("b", "SLICE", seq=True, placement=(1, 1)))
    design.add_net(Net("good", driver="a", sinks=["b"]))
    session = IncrementalSta(design, SMALL, GRAPH)
    ok = _outcome(session.analyze)
    assert ok[0] == "ok"

    design.add_net(Net("bad", driver="ghost", sinks=["b"]))
    with pytest.raises(KeyError):
        session.analyze()
    _check(session, design)  # still identical to the oracle while broken

    del design.nets["bad"]
    assert _outcome(session.analyze) == ok


# -- flow-level determinism ----------------------------------------------------


def test_parallel_build_timing_matches_serial(small_device):
    """``jobs=2`` database builds report the same per-component Fmax as a
    serial build, and both engines reproduce it from the stored
    checkpoints."""
    comps = group_components(make_tiny_cnn(), "layer")
    serial = ComponentDatabase(small_device)
    serial.build(comps, rom_weights=False, effort="low", seed=0, jobs=1)
    parallel = ComponentDatabase(small_device)
    parallel.build(comps, rom_weights=False, effort="low", seed=0, jobs=2)

    graph = RoutingGraph(small_device)
    for comp in comps:
        rs = serial.records[_key(comp)]
        rp = parallel.records[_key(comp)]
        assert rs.fmax_mhz == rp.fmax_mhz
        d1 = serial.get(comp.signature)
        d2 = parallel.get(comp.signature)
        ref = analyze_reference(d1, small_device, graph)
        inc = IncrementalSta(d2, small_device, graph).analyze()
        assert (ref.period_ps, ref.critical_path, ref.n_paths) == (
            inc.period_ps, inc.critical_path, inc.n_paths
        )


def _key(comp):
    from repro.rapidwright import signature_key

    return signature_key(comp.signature)
