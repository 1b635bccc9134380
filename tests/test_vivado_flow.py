"""Monolithic baseline flow and opt_design."""

import pytest

from repro.netlist import Design, Port
from repro.vivado import VivadoFlow, opt_design
from tests.conftest import make_tiny_cnn, stages_under_run


def test_opt_design_removes_dead_nets():
    d = Design("d")
    d.new_cell("a", "SLICE", luts=1)
    d.new_cell("b", "SLICE", luts=1)
    d.connect("live", "a", ["b"])
    d.connect("dead", "b", [])
    d.connect("port_net", "a", [])
    d.add_port(Port("out_data", "out", "port_net"))
    stats = opt_design(d)
    assert stats.removed_nets == 1
    assert "dead" not in d.nets and "port_net" in d.nets


def test_opt_design_counts_high_fanout():
    d = Design("d")
    d.new_cell("src", "SLICE", luts=1)
    sinks = []
    for i in range(70):
        d.new_cell(f"s{i}", "SLICE", luts=1)
        sinks.append(f"s{i}")
    d.connect("wide", "src", sinks)
    assert opt_design(d).high_fanout_nets == 1


@pytest.fixture(scope="module")
def baseline(small_device):
    return VivadoFlow(small_device, effort="low", seed=0).run(
        make_tiny_cnn(), rom_weights=True
    )


def test_flow_produces_implemented_design(small_device, baseline):
    design = baseline.design
    assert design.is_fully_placed
    assert baseline.route is not None and baseline.route.failed == 0
    design.validate(small_device)
    assert baseline.fmax_mhz > 0
    assert baseline.power.total_w > 0


def test_flow_timer_has_vivado_stages(baseline, traced_lenet):
    for stage in ("synth", "opt_design", "place_design", "route_design", "timing"):
        assert stage in baseline.stages
    assert baseline.runtime_s == sum(baseline.stages.values()) > 0
    # the ledger is the top-level stage spans, in run order, and nothing else
    result, spans = traced_lenet["baseline"]
    assert list(result.stages) == stages_under_run(spans)


def test_flow_utilization_keys(small_device, baseline):
    util = baseline.utilization(small_device)
    assert set(util) == {"LUT", "FF", "DSP48E2", "RAMB36"}
    assert 0 < util["LUT"] < 1


def test_flow_records_fmax_in_metadata(baseline):
    assert baseline.design.metadata["fmax_mhz"] == pytest.approx(baseline.fmax_mhz)


def test_flow_summary_mentions_fmax(baseline):
    assert "MHz" in baseline.summary()


def test_implement_arbitrary_design(small_device):
    from repro.synth import gen_pe_array

    design = gen_pe_array("MM", 3, 3)
    result = VivadoFlow(small_device, effort="low", seed=0).implement(design)
    assert result.fmax_mhz > 0
    design.validate(small_device)
