"""Bit-identity of the compiled annealer to its reference, and the
behavioural regressions fixed alongside the place/route hot paths.

The compiled annealer is a pure optimization: same floats, same
tie-breaks, same results.  These tests pin that equivalence on
deterministic instances (the Hypothesis suites in
``test_property_route.py`` / ``test_property_place.py`` cover randomized
ones, and the compiled router) plus degenerate-net costs, endpoint
overuse, RNG stream ordering and what the A* docstring promises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import make_rng
from repro.fabric import Device
from repro.netlist import Design
from repro.place import _annealer_reference as annealer_ref_mod
from repro.place import native as native_mod
from repro.place.annealer import _net_cost, anneal
from repro.place._annealer_reference import anneal_reference
from repro.place.native import anneal_native, native_available
from repro.place.global_place import global_place
from repro.place.legalize import legalize
from repro.place.problem import PlacementProblem
from repro.route import astar_route
from repro.route.pathfinder import _path_overused

SMALL = Device.from_name("small")


# -- A* search ----------------------------------------------------------------


def test_astar_docstring_admits_inadmissibility():
    # weighted A* is bounded-suboptimal, not optimal — the docs must not
    # promise shortest paths for heuristic_weight > 1
    doc = astar_route.__doc__
    assert "inadmissible" in doc
    assert "bounded-suboptimality" in doc


# -- annealer -----------------------------------------------------------------


def _random_problem(seed: int) -> tuple[PlacementProblem, np.ndarray]:
    rng = np.random.default_rng(seed)
    design = Design(f"det{seed}")
    names = []
    for i in range(int(rng.integers(6, 18))):
        design.new_cell(f"c{i}", "SLICE", luts=1)
        names.append(f"c{i}")
    for k in range(int(rng.integers(3, 10))):
        driver = names[int(rng.integers(0, len(names)))]
        sinks = sorted(
            {names[int(s)] for s in rng.integers(0, len(names), size=3)} - {driver}
        )
        if sinks:
            design.connect(f"n{k}", driver, sinks, width=int(rng.integers(1, 4)))
    problem = PlacementProblem.from_design(design, SMALL)
    sites = legalize(problem, global_place(problem, make_rng(seed), iters=5))
    return problem, sites


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_anneal_matches_reference(seed):
    problem, sites = _random_problem(seed)
    sites_opt = sites.copy()
    sites_ref = sites.copy()
    stats_opt = anneal(problem, sites_opt, seed=seed, moves_per_cell=30, max_moves=4_000)
    stats_ref = anneal_reference(
        problem, sites_ref, seed=seed, moves_per_cell=30, max_moves=4_000
    )
    assert np.array_equal(sites_opt, sites_ref)
    assert (stats_opt.moves, stats_opt.accepted) == (stats_ref.moves, stats_ref.accepted)
    assert stats_opt.initial_cost == stats_ref.initial_cost
    assert stats_opt.final_cost == stats_ref.final_cost


def test_anneal_checkpoints_stop_at_a_no_move_step():
    """Once a checkpoint step makes no move, neither implementation takes
    another checkpoint.  On this design (found by Hypothesis) that decides
    which best state the sweep restores; a reference that resumed at the
    next checkpoint step ended with other sites at the same cost."""
    if not native_available():
        pytest.skip("native annealer core unavailable")
    design = Design("checkpoints")
    for i in range(9):
        design.new_cell(f"c{i}", "SLICE", luts=1)
    design.new_cell("l0", "SLICE", luts=1, placement=(58, 34)).locked = True
    design.new_cell("l1", "SLICE", luts=1, placement=(4, 25)).locked = True
    design.new_cell("m0", "DSP48E2")
    for name, driver, sinks, width in [
        ("n0", "c4", ["c1"], 3), ("n1", "c2", ["c6"], 2), ("n2", "l0", ["c6", "c8"], 1),
        ("n3", "c2", ["c3", "c6"], 1), ("n4", "l1", ["c3"], 1),
    ]:
        design.connect(name, driver, sinks, width=width)
    problem = PlacementProblem.from_design(design, SMALL)
    sites = legalize(problem, global_place(problem, make_rng(1678), iters=5))
    sites_ref = sites.copy()
    stats = anneal_native(problem, sites, seed=1678, moves_per_cell=20, max_moves=2_000)
    stats_ref = anneal_reference(problem, sites_ref, seed=1678, moves_per_cell=20, max_moves=2_000)
    assert np.array_equal(sites, sites_ref)
    assert (stats.accepted, stats.final_cost) == (stats_ref.accepted, stats_ref.final_cost)


# -- behavioural regressions --------------------------------------------------


def test_net_cost_without_movable_pins():
    # a net whose movable pins were all filtered out must cost its fixed
    # bounding box, not crash on an empty min()
    xs: list[float] = []
    ys: list[float] = []
    fixed = [(2.0, 3.0), (7.0, 9.0)]
    cost = _net_cost([], fixed, xs, ys, 2.0)
    hpwl = (7.0 - 2.0) + (9.0 - 3.0)
    assert cost == pytest.approx((hpwl + hpwl * hpwl / 120.0) * 2.0)
    assert _net_cost([], [], xs, ys, 1.0) == 0.0


def test_path_overused_ignores_endpoint_nodes():
    capacity = np.ones(10)
    occupancy = np.zeros(10)
    path = [2, 3, 4, 5]
    inner = np.asarray(path[1:-1], dtype=np.intp)
    # overuse only under the endpoints (cell pins, never charged): clean
    occupancy[2] = 5.0
    occupancy[5] = 5.0
    assert not _path_overused(inner, occupancy, capacity)
    # overuse on an interior wire: must trigger a rip-up
    occupancy[3] = 2.0
    assert _path_overused(inner, occupancy, capacity)
    # degenerate two-node path has no wires at all
    assert not _path_overused(np.asarray([], dtype=np.intp), occupancy, capacity)


class _RecordingRng:
    """Delegates to a real Generator while recording the draw order."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.calls: list[tuple[str, tuple]] = []

    def integers(self, *args, **kwargs):
        self.calls.append(("integers", kwargs.get("size")))
        return self._rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls.append(("random", kwargs.get("size")))
        return self._rng.random(*args, **kwargs)


@pytest.mark.parametrize(
    "module,func",
    [
        # each implementation by name: the ``anneal`` dispatcher picks one by
        # core availability, and ``make_rng`` is patched per module
        (native_mod, anneal_native),
        (annealer_ref_mod, anneal_reference),
    ],
)
def test_hop_stream_is_drawn_last(monkeypatch, module, func):
    # the global-hop pool index must come from its own stream, drawn after
    # every other one — reusing the gate variable aliased hops to a slice
    # of the pool, and drawing it earlier would shift the non-hop streams
    if func is anneal_native and not native_available():
        pytest.skip("native annealer core unavailable")
    problem, sites = _random_problem(1)
    recorder = _RecordingRng(1)
    monkeypatch.setattr(module, "make_rng", lambda s: recorder)
    func(problem, sites.copy(), seed=1, moves_per_cell=5, max_moves=200)
    budget_draws = [c for c in recorder.calls if c[1] is not None]
    assert budget_draws[0][0] == "integers"  # cell picks
    kinds = [c[0] for c in budget_draws]
    assert kinds.count("integers") == 1
    # uniforms, pool gate, offsets, then the independent hop stream
    assert len(budget_draws) == 5
    sizes = [c[1] for c in budget_draws]
    assert sizes[-1] == sizes[1] == sizes[2]  # hop stream sized like the others
