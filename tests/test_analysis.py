"""Latency model, productivity accounting, reports, SOTA table."""

import pytest

from repro.analysis import (
    SOTA_TABLE,
    comparison_rows,
    component_cycles,
    compare_productivity,
    format_table,
    pct_str,
    ratio_str,
    simulate_stream,
)
from repro.analysis.latency import FILL_CYCLES
from repro.cnn import group_components, lenet5


@pytest.fixture(scope="module")
def lenet_components():
    return group_components(lenet5(), "layer")


def test_component_cycles_scale_with_parallelism(lenet_components):
    conv1 = lenet_components[0]
    serial = component_cycles(conv1, {"pf": 1, "pk": 1})
    parallel = component_cycles(conv1, {"pf": 6, "pk": 5})
    assert serial - FILL_CYCLES == conv1.macs
    assert parallel - FILL_CYCLES == pytest.approx(conv1.macs / 30, abs=1)


def test_pool_cycles_use_output_pixels(lenet_components):
    pool1 = next(c for c in lenet_components if c.kind.startswith("pool"))
    cycles = component_cycles(pool1, {"pf": 6, "pk": 1})
    c, h, w = pool1.out_shape
    assert cycles - FILL_CYCLES == pytest.approx(c * h * w / 6, abs=1)


def test_conv2_slower_than_conv1(lenet_components):
    """Table III shape: conv2 (240 K MACs) takes longer than conv1."""
    conv1, conv2 = lenet_components[0], lenet_components[2]
    par = {"pf": 6, "pk": 5}
    assert component_cycles(conv2, {"pf": 8, "pk": 5}) > component_cycles(conv1, par)


def test_simulate_stream_totals(lenet_components):
    lat = simulate_stream(lenet_components, fmax_mhz=400.0,
                          parallelism_of=lambda c: {"pf": 4, "pk": 5})
    assert len(lat.stages) == len(lenet_components)
    assert lat.total_us == pytest.approx(sum(s.compute_cycles / 400.0 for s in lat.stages))
    assert lat.total_ms == lat.total_us / 1e3


def test_simulate_stream_pipeline_regs_add_cycles(lenet_components):
    base = simulate_stream(lenet_components, 400.0)
    piped = simulate_stream(lenet_components, 400.0, pipeline_regs=100)
    assert piped.total_cycles == base.total_cycles + 100
    assert piped.total_us > base.total_us
    assert piped.stages == base.stages


def test_simulate_stream_validates_fmax(lenet_components):
    with pytest.raises(ValueError):
        simulate_stream(lenet_components, 0.0)


def test_format_table_alignment():
    text = format_table(["a", "bb"], [["x", 1], ["yyy", 22]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "---" in lines[3]
    assert len({len(l) for l in lines[4:]}) == 1  # aligned rows


def test_ratio_and_pct_strings():
    assert ratio_str(2.0, 1.0) == "2.00x"
    assert ratio_str(1.0, 0.0) == "n/a"
    assert pct_str(0.691) == "69.1%"


def test_sota_table_matches_paper_rows():
    labels = [e.label for e in SOTA_TABLE]
    assert any("KU060" in l for l in labels)
    rows = comparison_rows(243.0, 74.0, 56.67)
    assert rows[-1][0] == "This reproduction"
    assert len(rows) == len(SOTA_TABLE) + 1
    # the paper's own row: 263 MHz, 76 % DSP, 42.68 ms
    paper_row = [r for r in rows if "KU060" in r[1]][0]
    assert "263" in paper_row[2] and "42.68" in paper_row[5]
