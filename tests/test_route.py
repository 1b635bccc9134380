"""Router: maze search, direct paths, PathFinder negotiation, regions."""

import numpy as np
import pytest

from repro.fabric import PBlock, TileType
from repro.netlist import Design
from repro.place import place_design
from repro.route import RouteResult, Router, RoutingError, astar_route, direct_path
from repro.route import maze
from repro.route.maze import HEX_REACH
from repro.synth import gen_conv


# -- maze -----------------------------------------------------------------------


def _uniform_cost(nrows, ncols):
    return np.ones(nrows * ncols)


def test_astar_trivial_and_straight():
    cost = _uniform_cost(10, 10)
    assert astar_route(5, 5, 10, 10, cost) == [5]
    path = astar_route(0, 9, 10, 10, cost)
    assert path[0] == 0 and path[-1] == 9


def test_astar_prefers_cheap_nodes():
    nrows = ncols = 12
    cost = _uniform_cost(nrows, ncols)
    # poison a column except one row
    wall_col = 5
    for r in range(nrows):
        if r != 11:
            cost[wall_col * nrows + r] = 1000.0
    src = 2 * nrows + 2
    dst = 9 * nrows + 2
    path = astar_route(src, dst, nrows, ncols, cost)
    crossing_rows = [n % nrows for n in path if n // nrows == wall_col]
    assert crossing_rows == [11] or crossing_rows == []  # hex may hop the wall
    total = sum(cost[n] for n in path[1:])
    assert total < 1000


def test_astar_expansion_budget(monkeypatch):
    monkeypatch.setattr(maze, "MAX_EXPANSIONS", 3)
    cost = _uniform_cost(50, 50)
    assert astar_route(0, 50 * 50 - 1, 50, 50, cost) is None


def test_direct_path_endpoints_and_bbox():
    nrows = 30
    src = 2 * nrows + 3
    dst = 17 * nrows + 25
    path = direct_path(src, dst, nrows)
    assert path[0] == src and path[-1] == dst
    cols = [n // nrows for n in path]
    rows = [n % nrows for n in path]
    assert min(cols) >= 2 and max(cols) <= 17
    assert min(rows) >= 3 and max(rows) <= 25


def test_direct_path_adjacent_steps_are_wires():
    nrows = 30
    path = direct_path(0, 13 * nrows + 8, nrows)
    for a, b in zip(path, path[1:]):
        dc = abs(a // nrows - b // nrows)
        dr = abs(a % nrows - b % nrows)
        assert (dc, dr) in {(1, 0), (0, 1), (HEX_REACH, 0), (0, HEX_REACH)}


# -- Router -----------------------------------------------------------------------


def _placed_pair(device, distance=5) -> Design:
    d = Design("pair")
    clb = [int(c) for c in device.columns_of(TileType.CLB)]
    d.new_cell("a", "SLICE", placement=(clb[0], 0), luts=1)
    d.new_cell("b", "SLICE", placement=(clb[min(distance, len(clb) - 1)], 3), luts=1)
    d.connect("n", "a", ["b"], width=4)
    return d


def test_route_simple_net(tiny_device, tiny_graph):
    d = _placed_pair(tiny_device)
    result = Router(tiny_device, tiny_graph).route(d)
    assert result.success and result.routed == 1
    net = d.nets["n"]
    assert net.is_routed
    assert net.routes[0][0] == tiny_graph.node_id(*d.cells["a"].placement)
    assert net.routes[0][-1] == tiny_graph.node_id(*d.cells["b"].placement)


def test_route_unplaced_raises(tiny_device, tiny_graph):
    d = Design("bad")
    d.new_cell("a", "SLICE", luts=1)
    d.new_cell("b", "SLICE", luts=1)
    d.connect("n", "a", ["b"])
    with pytest.raises(RoutingError, match="unplaced"):
        Router(tiny_device, tiny_graph).route(d)


def test_route_skips_clock_and_locked(tiny_device, tiny_graph):
    d = _placed_pair(tiny_device)
    d.connect("clk", None, ["a", "b"], is_clock=True)
    locked = d.connect("frozen", "b", ["a"], locked=True)
    result = Router(tiny_device, tiny_graph).route(d)
    assert result.routed == 1
    assert not locked.is_routed


def test_route_preexisting_counted(tiny_device, tiny_graph):
    d = _placed_pair(tiny_device)
    Router(tiny_device, tiny_graph).route(d)
    again = Router(tiny_device, tiny_graph).route(d)
    assert again.preexisting == 1 and again.routed == 0


def test_route_region_confines_paths(small_device, small_graph):
    d = gen_conv(1, 8, 8, 3, 2, rom_weights=True)
    from repro.fabric import auto_pblock

    pb = auto_pblock(small_device, d.site_demand(), anchor=(0, 0))
    d.pblock = pb
    place_design(d, small_device, effort="low", seed=0)
    result = Router(small_device, small_graph).route(d, region=pb)
    assert result.failed == 0
    for net in d.nets.values():
        for path in net.routes:
            if path is None:
                continue
            for node in path:
                col, row = small_graph.node_xy(node)
                assert pb.contains(col, row)


def test_pathfinder_resolves_congestion(tiny_device):
    # Many wide nets between the same pair of columns forces negotiation.
    from repro.fabric import RoutingGraph

    graph = RoutingGraph(tiny_device)
    d = Design("hot")
    clb = [int(c) for c in tiny_device.columns_of(TileType.CLB)]
    n_pairs = 12
    for i in range(n_pairs):
        d.new_cell(f"s{i}", "SLICE", placement=(clb[0], i), luts=1)
        d.new_cell(f"t{i}", "SLICE", placement=(clb[-1], i), luts=1)
        d.connect(f"n{i}", f"s{i}", [f"t{i}"], width=60)
    result = Router(tiny_device, graph).route(d)
    assert result.failed == 0
    assert result.overused_nodes == 0
    assert d.is_fully_routed


def test_route_result_repr():
    ok = RouteResult(routed=3, failed=0, iterations=1, wirelength=10, overused_nodes=0)
    bad = RouteResult(routed=3, failed=1, iterations=2, wirelength=10, overused_nodes=4)
    assert ok.success and "ok" in repr(ok)
    assert not bad.success and "FAILED" in repr(bad)
