"""Property tests: checkpoint round-trips, layer math, DFGs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cnn import Conv2D, DFG, Dense, Flatten, Input, MaxPool2D, ReLU
from repro.netlist import Cell, Design, Net, design_from_dict, design_to_dict


# -- checkpoint round-trip over random designs -------------------------------


@st.composite
def random_designs(draw):
    d = Design("rand")
    n_cells = draw(st.integers(2, 12))
    types = st.sampled_from(["SLICE", "DSP48E2", "RAMB36"])
    for i in range(n_cells):
        ctype = draw(types)
        placed = draw(st.booleans())
        kwargs = {}
        if ctype == "SLICE":
            kwargs = {"luts": draw(st.integers(0, 8)), "ffs": draw(st.integers(0, 16))}
        d.add_cell(
            Cell(
                f"c{i}",
                ctype,
                placement=(draw(st.integers(0, 30)), draw(st.integers(0, 30)))
                if placed else None,
                locked=draw(st.booleans()),
                comb_depth=draw(st.integers(1, 6)),
                seq=draw(st.booleans()),
                **kwargs,
            )
        )
    n_nets = draw(st.integers(1, 10))
    for i in range(n_nets):
        driver = f"c{draw(st.integers(0, n_cells - 1))}"
        sinks = [f"c{draw(st.integers(0, n_cells - 1))}"]
        net = Net(f"n{i}", driver, sinks, width=draw(st.integers(1, 64)))
        if draw(st.booleans()):
            net.routes = [[draw(st.integers(0, 1000)) for _ in range(3)]]
        d.add_net(net)
    return d


@settings(max_examples=40, deadline=None)
@given(random_designs())
def test_checkpoint_roundtrip_random(design):
    copy = design_from_dict(design_to_dict(design))
    assert design_to_dict(copy) == design_to_dict(design)
    # usage is preserved too
    assert copy.resource_usage() == design.resource_usage()


# -- layer math ---------------------------------------------------------------


@settings(max_examples=60)
@given(
    st.integers(1, 8),   # cin
    st.integers(4, 24),  # hw
    st.integers(1, 5),   # kernel
    st.integers(1, 8),   # filters
    st.integers(1, 2),   # stride
)
def test_conv_macs_equal_weights_times_pixels(cin, hw, kernel, filters, stride):
    if kernel > hw:
        return
    conv = Conv2D("c", filters=filters, kernel=kernel, stride=stride)
    shape = (cin, hw, hw)
    out = conv.out_shape(shape)
    kernel_macs = kernel * kernel * cin * filters
    assert conv.n_macs(shape) == kernel_macs * out[1] * out[2]
    assert conv.n_weights(shape) == kernel_macs + filters
    # output never larger than input under valid padding
    assert out[1] <= hw and out[2] <= hw


@settings(max_examples=60)
@given(st.integers(1, 8), st.integers(2, 24), st.integers(2, 4))
def test_pool_preserves_channels_and_shrinks(ch, hw, size):
    if size > hw:
        return
    pool = MaxPool2D("p", size=size)
    out = pool.out_shape((ch, hw, hw))
    assert out[0] == ch
    assert out[1] == hw // size if hw % size == 0 else out[1] >= 1
    assert out[1] * size <= hw


@settings(max_examples=40)
@given(st.integers(1, 512), st.integers(1, 128))
def test_dense_counts(features, units):
    dense = Dense("d", units=units)
    assert dense.n_weights((features,)) == features * units + units
    assert dense.n_macs((features,)) == features * units


# -- DFG / BFS ------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 1000))
def test_sequential_dfg_bfs_is_topological(depth, seed):
    rng = np.random.default_rng(seed)
    layers = [Input("in", shape=(1, 32, 32))]
    for i in range(depth):
        kind = rng.integers(0, 2)
        if kind == 0:
            layers.append(Conv2D(f"l{i}", filters=2, kernel=3, padding="same"))
        else:
            layers.append(ReLU(f"l{i}"))
    dfg = DFG.sequential("n", layers)
    order = dfg.bfs()
    topo = dfg.topo_order()
    pos = {n: i for i, n in enumerate(order)}
    assert sorted(order) == sorted(topo)
    for src, dsts in dfg.adj.items():
        for dst in dsts:
            assert pos[src] < pos[dst]
