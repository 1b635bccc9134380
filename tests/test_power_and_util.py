"""Power estimator and shared utilities (rng, naming)."""

import numpy as np
import pytest

from repro._util import fresh_name, make_rng, manhattan
from repro.fabric import TileType
from repro.netlist import Design
from repro.power import estimate_power
from repro.route import Router


# -- power ---------------------------------------------------------------


def _two_cell_design(device, span):
    d = Design("p")
    clb = [int(c) for c in device.columns_of(TileType.CLB)]
    d.new_cell("a", "SLICE", placement=(clb[0], 0), luts=4, ffs=4)
    d.new_cell("b", "SLICE", placement=(clb[span], 0), luts=4, ffs=4)
    d.connect("n", "a", ["b"], width=16)
    return d


def test_power_positive_and_composed(tiny_device):
    d = _two_cell_design(tiny_device, 2)
    report = estimate_power(d, tiny_device, 300.0)
    assert report.static_w > 0
    assert report.logic_w > 0
    assert report.total_w == pytest.approx(
        report.static_w + report.logic_w + report.signal_w
    )
    assert "total" in report.summary()


def test_power_scales_with_frequency(tiny_device):
    d = _two_cell_design(tiny_device, 2)
    slow = estimate_power(d, tiny_device, 100.0)
    fast = estimate_power(d, tiny_device, 400.0)
    assert fast.dynamic_w > slow.dynamic_w
    assert fast.static_w == slow.static_w


def test_power_scales_with_wirelength(tiny_device):
    near = estimate_power(_two_cell_design(tiny_device, 1), tiny_device, 300.0)
    far = estimate_power(_two_cell_design(tiny_device, 8), tiny_device, 300.0)
    assert far.signal_w > near.signal_w


def test_power_uses_routes_when_available(tiny_device, tiny_graph):
    d = _two_cell_design(tiny_device, 6)
    est = estimate_power(d, tiny_device, 300.0)
    Router(tiny_device, tiny_graph).route(d)
    routed = estimate_power(d, tiny_device, 300.0, tiny_graph)
    assert routed.signal_w == pytest.approx(est.signal_w, rel=1.0)
    assert routed.signal_w > 0


def test_power_rejects_bad_fmax(tiny_device):
    with pytest.raises(ValueError):
        estimate_power(Design("x"), tiny_device, 0.0)


def test_dsp_burns_more_than_slice(tiny_device):
    from repro.fabric import TileType as TT

    clb = int(tiny_device.columns_of(TT.CLB)[0])
    dsp = int(tiny_device.columns_of(TT.DSP)[0])
    a = Design("a")
    a.new_cell("x", "SLICE", placement=(clb, 0), luts=1)
    b = Design("b")
    b.new_cell("x", "DSP48E2", placement=(dsp, 0))
    pa = estimate_power(a, tiny_device, 300.0)
    pb = estimate_power(b, tiny_device, 300.0)
    assert pb.logic_w > pa.logic_w


# -- rng / misc ------------------------------------------------------------


def test_make_rng_deterministic_and_passthrough():
    a = make_rng(42)
    b = make_rng(42)
    assert a.integers(0, 1000) == b.integers(0, 1000)
    gen = np.random.default_rng(7)
    assert make_rng(gen) is gen
    # None defaults to a fixed seed (library stays deterministic)
    assert make_rng(None).integers(0, 1000) == make_rng(0).integers(0, 1000)


def test_fresh_name_unique():
    names = {fresh_name("t") for _ in range(100)}
    assert len(names) == 100


def test_manhattan():
    assert manhattan(0, 0, 3, 4) == 7
    assert manhattan(3, 4, 0, 0) == 7
    assert manhattan(1, 1, 1, 1) == 0
