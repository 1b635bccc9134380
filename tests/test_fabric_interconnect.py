"""Routing graph: node addressing, adjacency, path metrics, capacities."""

import pytest

from repro.fabric import HEX_REACH, RoutingGraph, TileType


def test_node_roundtrip(tiny_graph, tiny_device):
    for col, row in [(0, 0), (3, 7), (tiny_device.ncols - 1, tiny_device.nrows - 1)]:
        node = tiny_graph.node_id(col, row)
        assert tiny_graph.node_xy(node) == (col, row)


def test_node_id_bounds(tiny_graph, tiny_device):
    with pytest.raises(IndexError):
        tiny_graph.node_id(tiny_device.ncols, 0)


def test_neighbors_are_in_bounds(tiny_graph, tiny_device):
    corner = tiny_graph.node_id(0, 0)
    for nbr, cost, span in tiny_graph.neighbors(corner):
        col, row = tiny_graph.node_xy(nbr)
        assert tiny_device.in_bounds(col, row)
        assert cost > 0 and span in (1, HEX_REACH)


def test_neighbor_counts_center_vs_corner(tiny_graph, tiny_device):
    mid = tiny_graph.node_id(tiny_device.ncols // 2, tiny_device.nrows // 2)
    corner = tiny_graph.node_id(0, 0)
    assert len(list(tiny_graph.neighbors(mid))) > len(list(tiny_graph.neighbors(corner)))


def test_hex_neighbors_span_six(tiny_graph, tiny_device):
    mid = tiny_graph.node_id(tiny_device.ncols // 2, tiny_device.nrows // 2)
    spans = [span for _n, _c, span in tiny_graph.neighbors(mid)]
    assert spans.count(HEX_REACH) == 4
    assert spans.count(1) == 4


def test_path_metrics_tiles_and_crossings(tiny_graph, tiny_device):
    io = int(tiny_device.io_columns[0])
    a = tiny_graph.node_id(io - 1, 0)
    b = tiny_graph.node_id(io + 1, 0)
    mid = tiny_graph.node_id(io, 0)
    path = [a, mid, b]
    assert tiny_graph.path_metrics(path) == (2, 0)  # hops end on the I/O column
    assert tiny_graph.path_metrics([a, b]) == (2, 1)


def test_lower_bound_is_admissible(tiny_graph, tiny_device):
    # lower bound must never exceed the cost of the straight single-wire path
    a = tiny_graph.node_id(0, 0)
    b = tiny_graph.node_id(5, 9)
    assert tiny_graph.lower_bound_cost(a, b) <= 14.0  # manhattan distance


def test_io_columns_have_reduced_capacity(tiny_graph, tiny_device):
    io = int(tiny_device.io_columns[0])
    clb = int(tiny_device.columns_of(TileType.CLB)[0])
    assert tiny_graph.capacity[tiny_graph.node_id(io, 0)] < tiny_graph.capacity[
        tiny_graph.node_id(clb, 0)
    ]


def test_capacity_shape(tiny_graph, tiny_device):
    assert tiny_graph.capacity.shape[0] == tiny_device.ncols * tiny_device.nrows
    assert tiny_graph.n_nodes == tiny_device.ncols * tiny_device.nrows
