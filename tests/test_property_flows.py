"""Property tests on flow-level invariants (hypothesis over random CNNs).

The load-bearing guarantees of the reproduction, checked over randomly
generated linear CNNs:

* stitched designs are always legal (placement + routing) and their Fmax
  never exceeds the slowest component's OOC Fmax;
* the component grouping covers every non-input layer exactly once and
  preserves the network function boundary shapes;
* PathFinder never leaves a wire over capacity on instances it reports
  as successful.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cnn import Conv2D, DFG, Dense, Flatten, Input, MaxPool2D, ReLU, group_components
from repro.fabric import Device, RoutingGraph, TileType
from repro.netlist import Design
from repro.rapidwright import PreImplementedFlow
from repro.route import Router

SMALL = Device.from_name("small")


@st.composite
def random_cnns(draw):
    """Small random linear CNNs that fit the small part."""
    c = draw(st.integers(1, 3))
    hw = draw(st.sampled_from([8, 12, 16]))
    layers = [Input("in", shape=(c, hw, hw))]
    n_stages = draw(st.integers(1, 3))
    cur_hw = hw
    for i in range(n_stages):
        kind = draw(st.integers(0, 1))
        if kind == 0 and cur_hw >= 4:
            layers.append(Conv2D(f"conv{i}", filters=draw(st.integers(1, 3)),
                                 kernel=3, padding="same"))
            if draw(st.booleans()):
                layers.append(ReLU(f"relu{i}"))
        elif cur_hw >= 4:
            layers.append(MaxPool2D(f"pool{i}", size=2))
            cur_hw //= 2
    layers.append(Flatten("flat"))
    layers.append(Dense("fc", units=draw(st.integers(2, 8))))
    return DFG.sequential(f"rnd{draw(st.integers(0, 10**6))}", layers)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_cnns())
def test_stitched_design_invariants(dfg):
    flow = PreImplementedFlow(SMALL, component_effort="low", seed=0)
    result = flow.run(dfg)
    stitch = result.extras["stitch"]
    # legality
    result.design.validate(SMALL)
    assert result.route.failed == 0
    assert result.design.is_fully_routed
    # the slowest-component bound (paper Sec. V-E)
    assert result.fmax_mhz <= stitch.slowest_component_mhz + 1e-6
    # one record per component, each locked into the top design
    comps = group_components(dfg, "layer")
    assert len(stitch.records) == len(comps)
    assert set(result.design.modules()) == {c.name for c in comps}


@settings(max_examples=20, deadline=None)
@given(random_cnns())
def test_grouping_partitions_layers(dfg):
    comps = group_components(dfg, "layer")
    covered = [n for c in comps for n in c.nodes]
    expected = [n for n in dfg.nodes if dfg.nodes[n].kind != "input"]
    assert sorted(covered) == sorted(expected)
    # boundary shapes chain correctly
    for a, b in zip(comps, comps[1:]):
        assert a.out_shape == b.in_shape
    assert comps[0].in_shape == dfg.nodes["in"].out_shape


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 14), st.integers(0, 10_000), st.integers(1, 48))
def test_pathfinder_respects_capacity(n_pairs, seed, width):
    """Random parallel bus bundles across the device: whenever the router
    reports success, no node exceeds its wire capacity."""
    rng = np.random.default_rng(seed)
    graph = RoutingGraph(SMALL)
    d = Design("cap")
    clb = [int(c) for c in SMALL.columns_of(TileType.CLB)]
    for i in range(n_pairs):
        r = int(rng.integers(0, SMALL.nrows))
        c_src = clb[int(rng.integers(0, len(clb) // 2))]
        c_dst = clb[int(rng.integers(len(clb) // 2, len(clb)))]
        d.new_cell(f"s{i}", "SLICE", placement=(c_src, r), luts=1)
        d.new_cell(f"t{i}", "SLICE", placement=(c_dst, r), luts=1)
        d.connect(f"n{i}", f"s{i}", [f"t{i}"], width=width)
    result = Router(SMALL, graph).route(d)
    if result.success:
        # recompute occupancy from the committed routes (per-net sharing)
        occupancy = np.zeros(graph.n_nodes)
        for net in d.nets.values():
            used = set()
            for path in net.routes:
                used.update((path or [])[1:-1])
            for node in used:
                occupancy[node] += net.width
        assert (occupancy <= graph.capacity).all()
    # either way, every connection got a path
    assert result.routed == n_pairs
