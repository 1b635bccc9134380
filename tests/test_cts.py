"""Clock-tree synthesis (repro.eco.cts).

The skew bound is the contract: every tree :func:`run_cts` agrees to
build must measure within ``max_skew_ps``, on flow-built designs and on
randomized sink clouds alike.  The clock DRC rules must stay clean after
insertion (BUFCE drivers are legal, every seq cell still sees a clock),
and the measured insertion delay must show up in a
:class:`TimingReport` exactly once — in ``clock_insertion_ps``, never
folded into the period — identically from both timing engines.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.drc import run_drc
from repro.eco import CtsError, cts, run_cts
from repro.fabric import Device, RoutingGraph
from repro.fabric.pblock import PBlock
from repro.netlist import Design
from repro.netlist.cell import Cell
from repro.netlist.net import Net
from repro.rapidwright import PreImplementedFlow
from repro.timing import IncrementalSta, analyze_reference
from tests.conftest import make_tiny_cnn

SMALL = Device.from_name("small")
GRAPH = RoutingGraph(SMALL)


@pytest.fixture(scope="module")
def cts_flow():
    """Flow-built tinynet with a synthesized clock tree.

    Returns ``(design, trees, pre_report, flow)`` where *pre_report* is
    the reference analysis taken before CTS ran.
    """
    net = make_tiny_cnn()
    flow = PreImplementedFlow(SMALL, component_effort="low", seed=0)
    result = flow.run(net)
    design = result.design
    pre = analyze_reference(design, SMALL, flow.graph, flow.delays)
    trees = run_cts(design, SMALL, delays=flow.delays)
    return design, trees, pre, flow


def test_skew_bound_holds_on_flow_design(cts_flow):
    design, trees, _pre, _flow = cts_flow
    meta = design.metadata["cts"]
    for tree in trees:
        assert tree.skew_ps <= meta["max_skew_ps"]
        assert 0.0 <= tree.skew_ps <= tree.insertion_ps
        assert tree.n_buffers >= 1
    assert meta["skew_ps"] == max(t.skew_ps for t in trees)
    assert meta["n_buffers"] == sum(t.n_buffers for t in trees)


def test_every_sink_keeps_a_clock_and_buffers_are_placed(cts_flow):
    design, trees, _pre, _flow = cts_flow
    clocked = set()
    for net in design.nets.values():
        if net.is_clock:
            clocked.update(net.sinks)
    for cell in design.cells.values():
        if cell.seq:
            assert cell.name in clocked
        if cell.ctype == "BUFCE":
            assert cell.is_placed
    # one BUFCE per tree node, all distinct sites
    bufs = [c for c in design.cells.values() if c.ctype == "BUFCE"]
    assert len(bufs) == sum(t.n_buffers for t in trees)
    assert len({c.placement for c in bufs}) == len(bufs)


def test_clock_drc_stays_clean_post_cts(cts_flow):
    design, _trees, _pre, _flow = cts_flow
    report = run_drc(design, SMALL, categories=("clock",), gate="test")
    assert not [v for v in report.violations if v.rule_id in ("CLK-001", "CLK-002")]


def test_insertion_delay_reported_exactly_once(cts_flow):
    design, _trees, pre, flow = cts_flow
    post = analyze_reference(design, SMALL, flow.graph, flow.delays)
    meta = design.metadata["cts"]
    # insertion shows up in its own field, identical to the measurement...
    assert post.clock_insertion_ps == pytest.approx(meta["insertion_ps"])
    assert pre.clock_insertion_ps == 0.0
    # ...and never leaks into the period; only the skew costs Fmax.
    assert post.clock_overhead_ps == pytest.approx(
        pre.clock_overhead_ps + meta["skew_ps"]
    )
    assert post.period_ps == pre.period_ps
    # re-analysis applies the terms once, not cumulatively
    again = analyze_reference(design, SMALL, flow.graph, flow.delays)
    assert again.clock_insertion_ps == post.clock_insertion_ps
    assert again.clock_overhead_ps == post.clock_overhead_ps
    # the incremental engine reports through the same helper
    inc = IncrementalSta(design, SMALL, flow.graph, flow.delays).analyze()
    assert inc.clock_insertion_ps == post.clock_insertion_ps
    assert inc.clock_overhead_ps == post.clock_overhead_ps
    assert inc.period_ps == post.period_ps


def test_cts_refuses_to_run_twice(cts_flow):
    design, _trees, _pre, flow = cts_flow
    with pytest.raises(CtsError, match="already has a clock tree"):
        run_cts(design, SMALL, delays=flow.delays)


def _clocked_design(seed: int, n_sinks: int) -> Design:
    rng = np.random.default_rng(seed)
    design = Design(f"cts{seed}")
    sinks = []
    taken = set()
    for i in range(n_sinks):
        while True:
            site = (int(rng.integers(0, SMALL.ncols)), int(rng.integers(0, SMALL.nrows)))
            if site not in taken:
                taken.add(site)
                break
        design.add_cell(Cell(f"ff{i}", "SLICE", seq=True, ffs=1, placement=site))
        sinks.append(f"ff{i}")
    design.add_net(Net("clk", driver=None, sinks=sinks, is_clock=True))
    return design


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from([1, 2, 4, 8]))
def test_skew_bound_holds_on_random_sink_clouds(seed, n_sinks, leaf_cap):
    """Every H-tree CTS agrees to build measures within the bound."""
    design = _clocked_design(seed, n_sinks)
    with mock.patch.object(cts, "MAX_LEAF_SINKS", leaf_cap):
        trees = run_cts(design, SMALL)
    meta = design.metadata["cts"]
    for tree in trees:
        assert tree.skew_ps <= meta["max_skew_ps"]
        assert tree.n_sinks == n_sinks
    report = run_drc(design, SMALL, categories=("clock",), gate="test")
    assert not [v for v in report.violations if v.rule_id.startswith("CLK")]


def test_unplaced_sink_rejected_before_mutation():
    design = _clocked_design(7, 3)
    design.cells["ff1"].placement = None
    doc = {n: (c.ctype, c.placement) for n, c in design.cells.items()}
    with pytest.raises(CtsError, match="not placed"):
        run_cts(design, SMALL)
    assert {n: (c.ctype, c.placement) for n, c in design.cells.items()} == doc
    assert "cts" not in design.metadata


def test_no_clock_net_rejected():
    design = Design("bare")
    design.add_cell(Cell("a", "SLICE", seq=True, placement=(0, 0)))
    with pytest.raises(CtsError, match="no clock net"):
        run_cts(design, SMALL)


def test_buffers_honor_component_footprints():
    """Sites inside recorded component footprints stay free for ECO
    layer swaps — CTS must allocate its buffers elsewhere."""
    design = _clocked_design(11, 12)
    keepout = PBlock(0, 0, SMALL.ncols // 2 - 1, SMALL.nrows - 1)
    design.metadata["footprints"] = {
        "comp0": [keepout.col0, keepout.row0, keepout.col1, keepout.row1]
    }
    run_cts(design, SMALL)
    for cell in design.cells.values():
        if cell.ctype == "BUFCE":
            assert not keepout.contains(*cell.placement)
