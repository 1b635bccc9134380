"""Delay-model regimes, placer/OOC option knobs, report formatting."""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.fabric import PBlock, TileType
from repro.netlist import Cell, Design
from repro.rapidwright import Footprint, preimplement
from repro.rapidwright.placer import _halo, _port_point
from repro.synth import gen_relu
from repro.timing import DEFAULT_DELAYS, DelayModel, analyze


# -- DelayModel -----------------------------------------------------------


def test_wire_delay_linear_before_knee():
    m = DEFAULT_DELAYS
    assert m.wire_delay_ps(10) == pytest.approx(10 * m.tile_delay_ps)
    assert m.wire_delay_ps(m.long_line_knee) == pytest.approx(
        m.long_line_knee * m.tile_delay_ps
    )


def test_wire_delay_long_line_regime_is_cheaper_per_tile():
    m = DEFAULT_DELAYS
    knee = m.long_line_knee
    beyond = m.wire_delay_ps(knee + 100) - m.wire_delay_ps(knee)
    assert beyond == pytest.approx(100 * m.far_tile_delay_ps)
    assert m.far_tile_delay_ps < m.tile_delay_ps
    # still monotone
    assert m.wire_delay_ps(300) > m.wire_delay_ps(200) > m.wire_delay_ps(41)


def test_estimated_delay_components():
    m = DEFAULT_DELAYS
    base = m.estimated_net_delay_ps(None, None, None)
    assert base == pytest.approx(
        m.net_base_ps + m.tile_delay_ps * m.unplaced_tiles
    )
    # fanout penalty saturates
    lo = m.estimated_net_delay_ps(None, None, None, fanout=2)
    hi = m.estimated_net_delay_ps(None, None, None, fanout=10_000)
    assert hi - lo <= m.fanout_ps * m.fanout_cap


class _SquareRootWires(DelayModel):
    def wire_delay_ps(self, tiles: float) -> float:
        return 30.0 * tiles ** 0.5


@pytest.mark.parametrize(
    "model", [DEFAULT_DELAYS, DelayModel(long_line_knee=7.5, fanout_cap=3), _SquareRootWires()]
)
def test_bulk_forms_return_the_scalar_floats(model):
    """`routed_delays_ps` / `cell_delays_ps` are what the timing graph
    compiles from: every element must be the very float the per-object
    method returns — across the long-line knee, the fanout cap, and for
    a subclass that overrides the scalar form."""
    tiles, crossings, fanout = (
        a.ravel() for a in np.meshgrid(np.arange(0, 90, 3), np.arange(4), np.arange(0, 20))
    )
    got = model.routed_delays_ps(tiles, crossings, fanout)
    want = [
        model.routed_delay_ps(t, c, f)
        for t, c, f in zip(tiles.tolist(), crossings.tolist(), fanout.tolist())
    ]
    assert got.dtype == np.float64 and got.tolist() == want

    cells = [
        Cell(f"c{i}", ctype, comb_depth=1 + i % 4)
        for i, ctype in enumerate(["SLICE", "DSP48E2", "RAMB36", "BUFCE", "URAM288"] * 5)
    ]
    logic, setup = model.cell_delays_ps(cells)
    assert logic.tolist() == [model.logic_delay_ps(c) for c in cells]
    assert setup.tolist() == [model.setup_ps(c) for c in cells]
    assert [a.size for a in model.cell_delays_ps([])] == [0, 0]


def test_custom_model_changes_sta(tiny_device):
    clb = int(tiny_device.columns_of(TileType.CLB)[0])
    d = Design("x")
    d.new_cell("a", "SLICE", placement=(clb, 0), ffs=1)
    d.new_cell("b", "SLICE", placement=(clb, 5), ffs=1)
    d.connect("n", "a", ["b"])
    fast = analyze(d, tiny_device, delays=DelayModel(clock_overhead_ps=0.0))
    slow = analyze(d, tiny_device, delays=DelayModel(clock_overhead_ps=500.0))
    assert fast.fmax_mhz > slow.fmax_mhz
    assert fast.period_ps == pytest.approx(slow.period_ps)  # data path unchanged


# -- OOC / placer option knobs ------------------------------------------------


def test_preimplement_max_height_override(small_device):
    tall = preimplement(gen_relu(24), small_device, effort="low", seed=0,
                        max_height=small_device.nrows)
    short = preimplement(gen_relu(24), small_device, effort="low", seed=0,
                         max_height=30)
    assert tall.pblock.height > short.pblock.height
    assert short.pblock.height <= 30 or short.pblock.height <= small_device.nrows


def test_halo_clamps_to_device(small_device):
    p = PBlock(0, 0, 3, 3)
    col0, row0, col1, row1 = _halo(p, 10, small_device)
    assert col0 == 0 and row0 == 0
    assert col1 <= small_device.ncols - 1 and row1 <= small_device.nrows - 1


def test_port_point_uses_partition_pin(small_device):
    design = gen_relu(4)
    preimplement(design, small_device, effort="low", seed=0)
    target = design.pblock.shifted(0, 0)
    footprint = Footprint.of(design)
    x_in, _ = _port_point(footprint, "in", target)
    x_out, _ = _port_point(footprint, "out", target)
    assert target.col0 <= x_in <= target.col1
    assert target.col0 <= x_out <= target.col1
    assert x_in <= x_out  # ports planned left->right


# -- report formatting --------------------------------------------------------


def test_format_table_handles_ragged_rows():
    text = format_table(["a"], [["x", "extra"], ["y"]])
    assert "extra" in text


def test_format_table_empty_rows():
    text = format_table(["h1", "h2"], [])
    assert "h1" in text
