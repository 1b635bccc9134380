"""STA: delay composition, critical paths, comb loops, pipelining."""

import pytest

from repro.fabric import TileType
from repro.netlist import Cell, Design, cell_type
from repro.timing import (
    DEFAULT_DELAYS,
    DelayModel,
    IncrementalSta,
    TimingError,
    analyze,
    analyze_reference,
    pipeline_to_target,
)


def _reg2reg(device, span=4) -> Design:
    d = Design("r2r")
    clb = [int(c) for c in device.columns_of(TileType.CLB)]
    d.new_cell("a", "SLICE", placement=(clb[0], 0), luts=1, ffs=1)
    d.new_cell("b", "SLICE", placement=(clb[min(span, len(clb) - 1)], 0), luts=1, ffs=1)
    d.connect("n", "a", ["b"], width=8)
    return d


def test_reg2reg_period_composition(tiny_device):
    d = _reg2reg(tiny_device)
    report = analyze(d, tiny_device)
    spec = cell_type("SLICE")
    dist = abs(d.cells["a"].placement[0] - d.cells["b"].placement[0])
    expected = (
        spec.base_delay_ps
        + DEFAULT_DELAYS.net_base_ps
        + DEFAULT_DELAYS.tile_delay_ps * dist * DEFAULT_DELAYS.detour_factor
        + spec.setup_ps
    )
    assert report.period_ps == pytest.approx(expected, rel=1e-6)
    assert report.fmax_mhz == pytest.approx(
        1e6 / (expected + DEFAULT_DELAYS.clock_overhead_ps), rel=1e-6
    )


def test_longer_wire_lower_fmax(tiny_device):
    near = analyze(_reg2reg(tiny_device, span=1), tiny_device)
    far = analyze(_reg2reg(tiny_device, span=8), tiny_device)
    assert far.fmax_mhz < near.fmax_mhz


def test_comb_chain_accumulates(tiny_device):
    d = Design("comb")
    clb = int(tiny_device.columns_of(TileType.CLB)[0])
    d.new_cell("src", "SLICE", placement=(clb, 0), ffs=1)
    d.new_cell("mid", "SLICE", placement=(clb, 1), luts=4, seq=False)
    d.new_cell("dst", "SLICE", placement=(clb, 2), ffs=1)
    d.connect("n1", "src", ["mid"])
    d.connect("n2", "mid", ["dst"])
    two_hop = analyze(d, tiny_device)
    assert [c for c, _ in two_hop.critical_path] == ["src", "mid", "dst"]
    # must exceed a single-hop path with the same endpoints
    single = analyze(_reg2reg(tiny_device, span=0), tiny_device)
    assert two_hop.period_ps > single.period_ps


def test_comb_loop_detected(tiny_device):
    d = Design("loop")
    clb = int(tiny_device.columns_of(TileType.CLB)[0])
    d.new_cell("x", "SLICE", placement=(clb, 0), seq=False, luts=1)
    d.new_cell("y", "SLICE", placement=(clb, 1), seq=False, luts=1)
    d.connect("fwd", "x", ["y"])
    d.connect("back", "y", ["x"])
    with pytest.raises(TimingError, match="combinational loop"):
        analyze(d, tiny_device)


def test_io_crossing_penalty(tiny_device):
    io = int(tiny_device.io_columns[0])
    clb = [int(c) for c in tiny_device.columns_of(TileType.CLB)]
    left = max(c for c in clb if c < io)
    right = min(c for c in clb if c > io)
    d = Design("cross")
    d.new_cell("a", "SLICE", placement=(left, 0), ffs=1)
    d.new_cell("b", "SLICE", placement=(right, 0), ffs=1)
    d.connect("n", "a", ["b"])
    crossing = analyze(d, tiny_device)
    same_side = analyze(_reg2reg(tiny_device, span=2), tiny_device)
    assert crossing.period_ps > same_side.period_ps + DEFAULT_DELAYS.io_cross_ps / 2


def test_clock_nets_excluded(tiny_device):
    d = _reg2reg(tiny_device)
    d.connect("clk", None, ["a", "b"], is_clock=True, width=1)
    base = analyze(_reg2reg(tiny_device), tiny_device)
    with_clk = analyze(d, tiny_device)
    assert with_clk.period_ps == base.period_ps


def test_empty_design(tiny_device):
    report = analyze(Design("empty"), tiny_device)
    assert report.n_paths == 0
    assert report.fmax_mhz > 0


def test_custom_delay_model(tiny_device):
    slow = DelayModel(tile_delay_ps=500.0)
    d = _reg2reg(tiny_device, span=5)
    assert analyze(d, tiny_device, delays=slow).fmax_mhz < analyze(d, tiny_device).fmax_mhz


def test_routed_delay_uses_actual_path(tiny_device, tiny_graph):
    from repro.route import Router

    d = _reg2reg(tiny_device, span=6)
    est = analyze(d, tiny_device, None)
    Router(tiny_device, tiny_graph).route(d)
    routed = analyze(d, tiny_device, tiny_graph)
    # both are sane and in the same ballpark
    assert routed.period_ps == pytest.approx(est.period_ps, rel=0.5)


# -- pipelining ---------------------------------------------------------------


def test_pipeline_inserts_regs_and_improves(tiny_device):
    d = _reg2reg(tiny_device, span=9)
    before = analyze(d, tiny_device)
    target = before.period_ps * 0.7
    result = pipeline_to_target(d, tiny_device, target)
    assert result.inserted >= 1
    assert result.after.period_ps < before.period_ps
    assert d.metadata["pipeline_regs"] == result.inserted
    d.validate(tiny_device)


def test_pipeline_respects_locked_nets(tiny_device):
    d = _reg2reg(tiny_device, span=9)
    d.nets["n"].locked = True
    result = pipeline_to_target(d, tiny_device, 1.0)  # unreachable target
    assert result.inserted == 0


def test_pipeline_joins_clock(tiny_device):
    d = _reg2reg(tiny_device, span=9)
    clk = d.connect("clk", None, ["a", "b"], is_clock=True)
    result = pipeline_to_target(d, tiny_device, analyze(d, tiny_device).period_ps * 0.7)
    assert result.inserted >= 1
    assert any(s.startswith("pipe_reg_") for s in clk.sinks)


def test_pipeline_revert_restores_exact_state(tiny_device, tiny_graph):
    """A split that doesn't help is reverted losslessly: the original net
    object returns with its routes, and a pre-routed clock net keeps its
    sinks *and* routes (regression: the revert used to rebuild the split
    net from scratch, dropping routes/width, and left the register on the
    clock net's route list)."""
    from repro.route import Router

    # One-tile hop: any inserted register adds a full net_base_ps without
    # shortening anything, so the split can never help and must revert.
    d = Design("r2r")
    clb = int(tiny_device.columns_of(TileType.CLB)[0])
    d.new_cell("a", "SLICE", placement=(clb, 0), luts=1, ffs=1)
    d.new_cell("b", "SLICE", placement=(clb, 1), luts=1, ffs=1)
    d.connect("n", "a", ["b"], width=8)
    clk = d.connect("clk", None, ["a", "b"], is_clock=True)
    Router(tiny_device, tiny_graph).route(d)
    clk.routes[:] = [[1, 2], [3, 4]]  # pre-routed clock (dedicated network)

    net = d.nets["n"]
    routes_before = [list(r) if r is not None else None for r in net.routes]
    route0 = net.routes[0]
    clk_sinks = list(clk.sinks)
    clk_routes = [list(r) for r in clk.routes]
    before = analyze(d, tiny_device, tiny_graph)

    result = pipeline_to_target(d, tiny_device, 1.0, graph=tiny_graph)

    assert result.inserted == 0
    assert d.nets["n"] is net, "revert must restore the original Net object"
    assert net.routes[0] is route0  # routes survive untouched, not copies
    assert [list(r) if r is not None else None for r in net.routes] == routes_before
    assert clk.sinks == clk_sinks
    assert clk.routes == clk_routes
    assert not any(c.startswith("pipe_reg_") for c in d.cells)
    assert "n__a" not in d.nets and "n__b" not in d.nets
    after = analyze(d, tiny_device, tiny_graph)
    assert (after.period_ps, after.critical_path, after.n_paths) == (
        before.period_ps, before.critical_path, before.n_paths
    )
    d.validate(tiny_device)


def test_pipeline_revert_leaves_no_stale_memo(tiny_device, tiny_graph):
    """Regression: a revert re-adds the *saved* net object, which moves it
    to the end of dict iteration order.  The session must re-register it
    (fresh stamp, delays recomputed) rather than serve memo entries keyed
    on the dead edges — re-timing after the revert has to be bit-identical
    to the reference and must not be answered from the report cache."""
    from repro.route import Router

    d = Design("r2r")
    clb = int(tiny_device.columns_of(TileType.CLB)[0])
    d.new_cell("a", "SLICE", placement=(clb, 0), luts=1, ffs=1)
    d.new_cell("b", "SLICE", placement=(clb, 1), luts=1, ffs=1)
    d.connect("n", "a", ["b"], width=8)
    Router(tiny_device, tiny_graph).route(d)

    session = IncrementalSta(d, tiny_device, tiny_graph)
    before = session.analyze()
    result = pipeline_to_target(d, tiny_device, 1.0, graph=tiny_graph, session=session)
    assert result.inserted == 0  # one-tile hop: the split reverted

    cached0, misses0 = session.stats.cached, session.stats.memo_misses
    after = session.analyze()
    assert session.stats.cached == cached0, "revert went unnoticed (stale cache hit)"
    assert session.stats.memo_misses > misses0, "restored net's delays not recomputed"
    ref = analyze_reference(d, tiny_device, tiny_graph)
    assert (after.period_ps, after.critical_path, after.n_paths) == (
        ref.period_ps, ref.critical_path, ref.n_paths
    ) == (before.period_ps, before.critical_path, before.n_paths)


def test_same_object_net_readd_restamps(tiny_device):
    """Regression: del + re-add of the *same* Net object (the ECO undo
    path) moves it to the end of dict order; the stamp must follow, or
    arrival ties break differently from the reference."""
    d = Design("tie")
    clb = int(tiny_device.columns_of(TileType.CLB)[0])
    # Symmetric drivers: equal arrivals at dst, so the winner is purely
    # the first-max-wins iteration order.
    d.new_cell("a", "SLICE", placement=(clb, 0), luts=1, ffs=1)
    d.new_cell("b", "SLICE", placement=(clb, 4), luts=1, ffs=1)
    d.new_cell("dst", "SLICE", placement=(clb, 2), ffs=1)
    d.connect("n1", "a", ["dst"])
    d.connect("n2", "b", ["dst"])
    session = IncrementalSta(d, tiny_device)
    assert session.analyze().critical_path == [("a", None), ("dst", "n1")]

    n1 = d.nets.pop("n1")
    d.add_net(n1)  # same object, new dict position — no other change
    got = session.analyze()
    ref = analyze_reference(d, tiny_device)
    assert got.critical_path == ref.critical_path == [("b", None), ("dst", "n2")]
    assert session.stats.cached == 0


def test_cell_replaced_in_its_slot_keeps_scan_order(tiny_device):
    """Regression: assigning a new Cell under an existing name keeps the
    entry's place in dict order; the endpoint scan must keep visiting it
    there, or ties between different registers break differently from
    the reference."""
    d = Design("slot")
    for name in ("a", "b", "d1", "d2"):  # unplaced: every hop costs the same
        d.new_cell(name, "SLICE", ffs=1)
    d.connect("n1", "a", ["d1"])
    d.connect("n2", "b", ["d2"])
    session = IncrementalSta(d, tiny_device)
    assert session.analyze().critical_path == [("a", None), ("d1", "n1")]

    d.cells["d1"] = Cell("d1", "SLICE", ffs=2)  # same slot, new object
    got = session.analyze()
    ref = analyze_reference(d, tiny_device)
    assert got.critical_path == ref.critical_path == [("a", None), ("d1", "n1")]


# -- incremental sessions ------------------------------------------------------


def test_report_counts_paths_not_endpoints(tiny_device):
    """n_paths counts seq-input data edges: two nets landing on one
    register are two paths, and summary() says "paths"."""
    d = Design("paths")
    clb = int(tiny_device.columns_of(TileType.CLB)[0])
    d.new_cell("a", "SLICE", placement=(clb, 0), ffs=1)
    d.new_cell("b", "SLICE", placement=(clb, 1), ffs=1)
    d.new_cell("dst", "SLICE", placement=(clb, 2), ffs=1)
    d.connect("n1", "a", ["dst"])
    d.connect("n2", "b", ["dst"])
    report = analyze(d, tiny_device)
    assert report.n_paths == 2  # one endpoint cell, two timing paths
    assert "2 paths" in report.summary()


def test_session_caches_unchanged_design(tiny_device):
    d = _reg2reg(tiny_device, span=5)
    session = IncrementalSta(d, tiny_device)
    first = session.analyze()
    again = session.analyze()
    assert again is first  # memoized report, not a recompute
    assert session.stats.analyses == 2
    assert session.stats.cached == 1
    d.cells["b"].placement = (d.cells["b"].placement[0], 3)
    third = session.analyze()
    assert third is not first
    assert session.stats.cached == 1


def test_session_tracks_edits_bit_identically(tiny_device, tiny_graph):
    from repro.route import Router

    d = _reg2reg(tiny_device, span=7)
    session = IncrementalSta(d, tiny_device, tiny_graph)
    session.analyze()
    Router(tiny_device, tiny_graph).route(d)  # fresh route lists
    d.new_cell("c", "SLICE", placement=(d.cells["a"].placement[0], 2), ffs=1)
    d.connect("n2", "b", ["c"])
    got = session.analyze()
    ref = analyze_reference(d, tiny_device, tiny_graph)
    assert (got.period_ps, got.critical_path, got.n_paths) == (
        ref.period_ps, ref.critical_path, ref.n_paths
    )
    # Moving only "c" leaves the routed a->b edge answerable from the memo.
    d.cells["c"].placement = (d.cells["c"].placement[0], 4)
    got = session.analyze()
    ref = analyze_reference(d, tiny_device, tiny_graph)
    assert (got.period_ps, got.critical_path, got.n_paths) == (
        ref.period_ps, ref.critical_path, ref.n_paths
    )
    assert session.stats.memo_hits > 0  # untouched edges answered from memo


def test_fmax_session_shortcut(tiny_device):
    d = _reg2reg(tiny_device, span=5)
    session = IncrementalSta(d, tiny_device)
    assert session.analyze().fmax_mhz == analyze(d, tiny_device).fmax_mhz
    other = _reg2reg(tiny_device, span=3)
    with pytest.raises(ValueError, match="tracks design"):
        pipeline_to_target(other, tiny_device, 1.0, session=session)


@pytest.mark.parametrize("model", ["vgg16", "lenet5"])
def test_every_split_reports_what_the_reference_does(model, monkeypatch):
    """The session ``pipeline_to_target`` drives, after each of its splits
    (and the revert of one that did not help): the period and critical
    path ``analyze_reference`` finds on the same design state — read off
    an encoded copy, so the live design stays block-backed."""
    from repro.cnn import lenet5, vgg16
    from repro.fabric import Device
    from repro.netlist import decode_design, encode_design
    from repro.rapidwright import ComponentDatabase, PreImplementedFlow

    device, run = {
        # high effort: the stitched VGG-16 misses the auto target by four registers
        "vgg16": (Device.from_name("ku5p-like"), dict(
            net=vgg16(), effort="high", granularity="block", rom_weights=False,
            target="auto")),
        # 282 MHz stitched: four registers, then a split that does not help
        "lenet5": (Device.from_name("small"), dict(
            net=lenet5(), effort="low", granularity="layer", rom_weights=True,
            target=1000.0)),
    }[model]
    flow = PreImplementedFlow(device, component_effort=run["effort"], seed=0)
    database = ComponentDatabase(device)
    kwargs = dict(granularity=run["granularity"], rom_weights=run["rom_weights"])
    flow.run(run["net"], database=database, **kwargs)
    analyze = IncrementalSta.analyze
    seen = []

    def checked(self):
        report = analyze(self)
        want = analyze_reference(decode_design(encode_design(self.design)), device,
                                 self.graph, self.delays)
        assert (report.period_ps, report.critical_path, report.n_paths) == \
               (want.period_ps, want.critical_path, want.n_paths)
        seen.append(report.period_ps)
        return report

    monkeypatch.setattr(IncrementalSta, "analyze", checked)
    result = flow.run(run["net"], database=database, pipeline_target_mhz=run["target"],
                      **kwargs)
    inserted = result.extras["pipeline"].inserted
    assert inserted >= (4 if model == "vgg16" else 2)
    assert len(seen) >= inserted + 2         # before, each split, the final report
