"""Flat network synthesis: stitching, reuse, flat-overhead modeling."""

import pytest

from repro.cnn import Conv2D, DFG, Input, ReLU
from repro.synth import synthesize_network
from tests.conftest import make_tiny_cnn


def test_flat_top_is_valid_and_connected():
    s = synthesize_network(make_tiny_cnn(), rom_weights=True)
    s.top.validate()
    assert "in_data" in s.top.ports and "out_data" in s.top.ports
    # one merged clock
    clocks = [n for n in s.top.nets.values() if n.is_clock]
    assert len(clocks) == 1


def test_components_are_instantiated_with_module_tags():
    s = synthesize_network(make_tiny_cnn(), rom_weights=True)
    modules = set(s.top.modules())
    assert modules == {c.name for c in s.components}


def test_reuse_factor_counts_replication():
    dfg = DFG.sequential(
        "rep",
        [
            Input("in", shape=(2, 16, 16)),
            Conv2D("c1", filters=2, kernel=3, padding="same"),
            ReLU("r1"),
            Conv2D("c2", filters=2, kernel=3, padding="same"),
            ReLU("r2"),
            Conv2D("c3", filters=2, kernel=3, padding="same"),
            ReLU("r3"),
        ],
    )
    s = synthesize_network(dfg, rom_weights=True)
    assert len(s.components) == 3
    assert len(s.unique_designs) == 1
    assert s.reuse_factor == pytest.approx(3.0)


def test_flat_overhead_adds_glue():
    """The flat top carries glue its instantiated components do not."""
    s = synthesize_network(make_tiny_cnn(), rom_weights=True)
    bare = [s.unique_designs[sig] for sig in s.instance_of.values()]
    assert len(s.top.cells) > sum(len(d.cells) for d in bare)
    assert s.top.resource_usage()["LUT"] > sum(d.resource_usage()["LUT"] for d in bare)
    s.top.validate()


def test_weight_ports_promoted_for_stream_style():
    s = synthesize_network(make_tiny_cnn(), rom_weights=False)
    weight_ports = [p for p in s.top.ports if p.startswith("weights_")]
    assert weight_ports  # conv and fc stages stream their coefficients


def test_stream_stitching_is_a_chain():
    s = synthesize_network(make_tiny_cnn(), rom_weights=True)
    # each consecutive pair of components is bridged by exactly one net
    bridges = [n for n in s.top.nets.values() if n.name.startswith(tuple(
        c.name + "__" for c in s.components))]
    assert len(bridges) == len(s.components) - 1
