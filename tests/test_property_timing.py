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

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnn import group_components
from repro.fabric import Device, RoutingGraph
from repro.netlist import Design
from repro.netlist.cell import Cell
from repro.netlist.net import Net
from repro.rapidwright import ComponentDatabase
from repro.timing import DelayModel, IncrementalSta, TimingError, analyze_reference
from tests.conftest import make_tiny_cnn

SMALL = Device.from_name("small")
GRAPH = RoutingGraph(SMALL)

#: Cell names nets may dangle on (never added to the design).
GHOSTS = ("ghost0", "ghost1")

#: More than SLICE, so the per-``(ctype, comb_depth)`` delay table of the
#: compiled graph sees several cell types.
CTYPES = ("SLICE", "SLICE", "DSP48E2", "RAMB36")


class LutCountDelays(DelayModel):
    """A model whose logic delay reads a field outside ``(ctype,
    comb_depth)``: only correct if the graph asks per cell."""

    def logic_delay_ps(self, cell: Cell) -> float:
        return super().logic_delay_ps(cell) + 13.0 * cell.luts


def _outcome(fn):
    """Normalized result of one analysis: value tuple or error shape.

    ``TimingError`` messages are compared verbatim (both engines build
    them identically); ``KeyError`` args are not (with several broken
    nets the engines may trip over different ones first).
    """
    try:
        r = fn()
        return (
            "ok", r.period_ps, tuple(r.critical_path), r.n_paths,
            r.clock_overhead_ps, r.clock_insertion_ps,
        )
    except TimingError as e:
        return ("loop", str(e))
    except KeyError:
        return ("keyerror",)


def _check(session: IncrementalSta, design: Design) -> None:
    inc = _outcome(session.analyze)
    ref = _outcome(lambda: analyze_reference(design, SMALL, GRAPH, session.delays))
    assert inc == ref


def _random_route(rng, uniform: bool = False) -> list[int]:
    """*uniform* (here and below) makes every wire and cell alike, so
    arrivals tie everywhere and only scan order picks the critical path."""
    if uniform:
        return [0, 1]
    n = int(rng.integers(2, 7))
    return [int(x) for x in rng.integers(0, GRAPH.n_nodes, size=n)]


def _random_placement(rng, uniform: bool = False):
    if uniform or rng.random() < 0.15:
        return None
    return (int(rng.integers(0, SMALL.ncols)), int(rng.integers(0, SMALL.nrows)))


def _random_cell(rng, name: str, uniform: bool = False) -> Cell:
    if uniform:
        return Cell(name, "SLICE", seq=bool(rng.random() < 0.45))
    ctype = CTYPES[int(rng.integers(0, len(CTYPES)))]
    return Cell(
        name,
        ctype,
        luts=int(rng.integers(0, 9)) if ctype == "SLICE" else 0,
        seq=bool(rng.random() < 0.45),
        comb_depth=int(rng.integers(1, 4)),
        placement=_random_placement(rng),
    )


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
    uniform = draw(st.booleans())
    rng = np.random.default_rng(seed)
    design = Design(f"ta{seed}")
    n_cells = int(rng.integers(3, 15))
    names = []
    for i in range(n_cells):
        design.add_cell(_random_cell(rng, f"c{i}", uniform))
        names.append(f"c{i}")
    pool = list(names) + (list(GHOSTS) if broken else [])
    for k in range(int(rng.integers(1, 10))):
        driver = pool[int(rng.integers(0, len(pool)))]
        sinks = sorted({pool[int(s)] for s in rng.integers(0, len(pool), size=int(rng.integers(1, 4)))})
        net = Net(f"n{k}", driver=driver, sinks=sinks)
        for i in range(len(sinks)):
            if routed or rng.random() < 0.4:
                net.routes[i] = _random_route(rng, uniform)
        design.add_net(net)
    seq_sinks = [n for n in names if design.cells[n].seq]
    if seq_sinks and rng.random() < 0.7:
        design.add_net(Net("clk", driver=None, sinks=seq_sinks, is_clock=True))
    return design, seed, broken, uniform


def _apply_edit(design: Design, rng, k: int, broken: bool, uniform: bool = False) -> None:
    """One random in-flow mutation (placement, route, or netlist edit)."""
    cells = [c for c in design.cells.values()]
    nets = [n for n in design.nets.values() if not n.is_clock]
    op = int(rng.integers(0, 18))
    if op == 0 and cells:  # move a cell
        cells[int(rng.integers(0, len(cells)))].placement = _random_placement(rng, uniform)
    elif op == 1 and nets:  # route one sink (fresh list: the memo contract)
        net = nets[int(rng.integers(0, len(nets)))]
        if net.sinks:
            net.routes[int(rng.integers(0, len(net.sinks)))] = _random_route(rng, uniform)
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
                     placement=_random_placement(rng, uniform))
            )
    elif op == 8 and len(cells) > 2:  # delete a cell, leaving danglers
        del design.cells[cells[int(rng.integers(0, len(cells)))].name]
    elif op == 9 and nets:  # pipeline-style split through a new register
        net = nets[int(rng.integers(0, len(nets)))]
        if net.driver in design.cells and net.sinks:
            reg = Cell(f"r{k}", "SLICE", seq=True, placement=_random_placement(rng, uniform))
            design.add_cell(reg)
            del design.nets[net.name]
            design.add_net(Net(f"{net.name}__a", driver=net.driver, sinks=[reg.name]))
            design.add_net(Net(f"{net.name}__b", driver=reg.name, sinks=list(net.sinks)))
            clk = design.nets.get("clk")
            if clk is not None:
                clk.add_sink(reg.name)
    # In-place edits that leave every container the same object and the
    # same length — what a column diff has to look inside for.
    elif op == 10 and nets and cells:  # reassign a driver
        pool = [*(c.name for c in cells), *(GHOSTS if broken else ()), None]
        nets[int(rng.integers(0, len(nets)))].driver = pool[int(rng.integers(0, len(pool)))]
    elif op == 11 and design.nets:  # data net <-> clock net
        net = list(design.nets.values())[int(rng.integers(0, len(design.nets)))]
        net.is_clock = not net.is_clock
    elif op == 12 and nets:  # swap two sinks (same length, same set)
        wide = [n for n in nets if len(n.sinks) >= 2]
        if wide:
            net = wide[int(rng.integers(0, len(wide)))]
            net.sinks[0], net.sinks[-1] = net.sinks[-1], net.sinks[0]
    elif op == 13 and cells:  # a clock net grows, nothing else changes
        clocks = [n for n in design.nets.values() if n.is_clock]
        if clocks:
            clocks[0].add_sink(cells[int(rng.integers(0, len(cells)))].name)
    elif op == 14:  # clock tree recorded / dropped
        if "cts" in design.metadata:
            del design.metadata["cts"]
        else:
            design.metadata["cts"] = {
                "skew_ps": float(rng.integers(0, 90)), "insertion_ps": 410.0,
            }
    elif op == 15 and cells:  # replace a cell under its name, same dict slot
        name = cells[int(rng.integers(0, len(cells)))].name
        design.cells[name] = _random_cell(rng, name, uniform)
    elif op == 16 and nets:  # del + re-add the *same* net object (moves to the end)
        net = nets[int(rng.integers(0, len(nets)))]
        del design.nets[net.name]
        design.add_net(net)
    elif op == 17 and nets:  # replace one sink in place
        net = nets[int(rng.integers(0, len(nets)))]
        if net.sinks and cells:
            net.sinks[int(rng.integers(0, len(net.sinks)))] = cells[
                int(rng.integers(0, len(cells)))
            ].name


@settings(max_examples=30, deadline=None)
@given(timing_designs())
def test_fresh_session_matches_reference(case):
    design, _seed, _broken, _uniform = case
    _check(IncrementalSta(design, SMALL, GRAPH), design)


@settings(max_examples=30, deadline=None)
@given(timing_designs(routed=True))
def test_routed_first_analysis_times_every_edge_once(case):
    """The cold compile of a routed design: same report as the oracle
    (or the same loop error), and the delay memo counts exactly one
    computation per data edge."""
    design, _seed, _broken, _uniform = case
    session = IncrementalSta(design, SMALL, GRAPH)
    inc = _outcome(session.analyze)
    assert inc == _outcome(lambda: analyze_reference(design, SMALL, GRAPH))
    if inc[0] == "ok":  # a raised analysis keeps no stats
        edges = sum(
            len(net.sinks) for net in design.nets.values() if not net.is_clock
        )
        assert (session.stats.memo_misses, session.stats.memo_hits) == (edges, 0)


@settings(max_examples=60, deadline=None)
@given(
    timing_designs(), st.integers(0, 10_000), st.integers(1, 8),
    st.sampled_from([DelayModel(), LutCountDelays()]),
)
def test_session_tracks_random_edit_sequence(case, edit_seed, n_edits, delays):
    design, _seed, broken, uniform = case
    rng = np.random.default_rng(edit_seed)
    session = IncrementalSta(design, SMALL, GRAPH, delays)
    _check(session, design)
    for k in range(n_edits):
        _apply_edit(design, rng, k, broken, uniform)
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
    design, _seed, _broken, _uniform = case
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


def _routed_chain(n_cells: int) -> Design:
    """``c0 -> c1 -> ... `` registers, every hop routed, one clock net."""
    rng = np.random.default_rng(n_cells)
    design = Design(f"chain{n_cells}")
    for i in range(n_cells):
        design.add_cell(Cell(f"c{i}", "SLICE", seq=True, placement=_random_placement(rng)))
    for i in range(n_cells - 1):
        net = design.add_net(Net(f"n{i}", driver=f"c{i}", sinks=[f"c{i + 1}"]))
        net.routes[0] = _random_route(rng)
    design.add_net(Net("clk", driver=None, sinks=list(design.cells), is_clock=True))
    return design


def test_mass_net_removal_and_return():
    """Hundreds of rows leave in one sync and come back in the next
    (more dead edges than the old append-only arrays tolerated before
    recompiling); the survivors keep their memoized delays."""
    design = _routed_chain(400)
    session = IncrementalSta(design, SMALL, GRAPH)
    _check(session, design)
    gone = [design.nets.pop(f"n{i}") for i in range(20, 320)]
    misses = session.stats.memo_misses
    _check(session, design)
    assert session.stats.memo_misses == misses  # nothing re-timed
    for net in reversed(gone):
        design.add_net(net)
    _check(session, design)
    assert session.stats.memo_misses == misses + len(gone)


def test_cold_compile_keeps_columns_not_objects():
    """The compiled graph is a handful of lists and arrays: a cold
    analysis of an N-cell routed design must not leave a container per
    cell, net or edge behind (it used to leave about 5 N)."""
    n = 2000
    design = _routed_chain(n)
    session = IncrementalSta(design, SMALL, GRAPH)
    gc.collect()
    before = len(gc.get_objects())
    report = session.analyze()
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert report.n_paths == n - 1
    assert grown < n // 4, f"{grown} new GC-tracked objects for {n} cells"


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
        assert serial.fmax_of(comp.signature) == parallel.fmax_of(comp.signature)
        d1 = serial.get(comp.signature)
        d2 = parallel.get(comp.signature)
        ref = analyze_reference(d1, small_device, graph)
        inc = IncrementalSta(d2, small_device, graph).analyze()
        assert (ref.period_ps, ref.critical_path, ref.n_paths) == (
            inc.period_ps, inc.critical_path, inc.n_paths
        )
