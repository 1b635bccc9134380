"""Bit-identity of the compiled annealer to its reference, and the
behavioural regressions fixed alongside the place/route hot paths.

The compiled annealer is a pure optimization: same floats, same
tie-breaks, same results.  These tests pin that equivalence on
deterministic instances (the Hypothesis suites in
``test_property_route.py`` / ``test_property_place.py`` cover randomized
ones, and the compiled router) plus degenerate-net costs, endpoint
overuse, the chunked RNG streams (the values of one-shot draws, in
bounded memory, whatever the chunk size) and what the A* docstring
promises.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro._util import make_rng
from repro.fabric import Device
from repro.netlist import Design
from repro.obs.span import Tracer
from repro.place import annealer as annealer_mod
from repro.place.annealer import STREAM_CHUNK, _net_cost, anneal, move_streams
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
    _assert_checkpoints_stop_at_a_no_move_step()


def test_anneal_checkpoints_stop_at_a_no_move_step_in_a_later_chunk(monkeypatch):
    """The same at 7-step chunks: the no-move checkpoint step lies in a
    later chunk than the sweep's first, so the schedule must survive the
    resumed C calls."""
    monkeypatch.setattr(annealer_mod, "STREAM_CHUNK", 7)
    _assert_checkpoints_stop_at_a_no_move_step()


def _assert_checkpoints_stop_at_a_no_move_step():
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
    tracer = Tracer()
    with tracer.activate():
        stats = anneal_native(problem, sites, seed=1678, moves_per_cell=20, max_moves=2_000)
    stats_ref = anneal_reference(problem, sites_ref, seed=1678, moves_per_cell=20, max_moves=2_000)
    assert np.array_equal(sites, sites_ref)
    assert (stats.accepted, stats.final_cost) == (stats_ref.accepted, stats_ref.final_cost)
    # the checkpoints did stop early, at a step past the first 7-step chunk
    last = max(
        e["attrs"]["step"] for e in tracer.sink.events
        if e["ph"] == "sample" and e["name"] == "place.cost" and "step" in e["attrs"]
    )
    stop = last + stats.moves // 32
    assert 7 <= stop < stats.moves


@pytest.mark.parametrize("seed", [50, 150])
def test_chunked_sweep_restores_the_best_checkpoint(monkeypatch, seed):
    """These sweeps end above their best checkpoint and restore it.  At
    7-step chunks the C sweep resumes many times after that checkpoint;
    what it restores must still be the checkpoint's positions."""
    if not native_available():
        pytest.skip("native annealer core unavailable")
    monkeypatch.setattr(annealer_mod, "STREAM_CHUNK", 7)
    problem, sites = _random_problem(seed)
    sites_ref = sites.copy()
    stats = anneal_native(problem, sites, seed=seed, moves_per_cell=20, max_moves=4_000)
    stats_ref = anneal_reference(problem, sites_ref, seed=seed, moves_per_cell=20, max_moves=4_000)
    assert np.array_equal(sites, sites_ref)
    assert (stats.accepted, stats.final_cost) == (stats_ref.accepted, stats_ref.final_cost)


# -- the move streams ---------------------------------------------------------


def _one_shot_streams(rng: np.random.Generator, n: int, budget: int):
    """The five draws as the annealers made them before the streams were
    chunked: whole, in this order, the hop pool picks last."""
    cell_picks = rng.integers(0, n, size=budget)
    uniforms = rng.random(size=budget)
    pool_picks = rng.random(size=budget)
    offset_picks = rng.random(size=(budget, 2))
    hop_picks = rng.random(size=budget)
    return cell_picks, uniforms, pool_picks, offset_picks, hop_picks


def _drawn_from(seed: int) -> np.random.Generator:
    """A generator that has been used, holding a buffered 32-bit half."""
    rng = make_rng(seed)
    rng.random(3)
    rng.integers(0, 9, dtype=np.int32)
    return rng


@pytest.mark.parametrize(
    "budget", [1, 7, STREAM_CHUNK - 1, STREAM_CHUNK, STREAM_CHUNK + 1, 3 * STREAM_CHUNK + 5]
)
def test_move_streams_are_the_one_shot_draws(budget):
    # the chunks concatenate to the one-shot arrays — so the hop stream is
    # still drawn last (reusing the gate variable aliased hops to a slice of
    # the pool, and drawing it earlier would shift the non-hop streams) —
    # and the caller's generator ends in the very same state
    want_rng, rng = _drawn_from(5), _drawn_from(5)
    want = _one_shot_streams(want_rng, 13, budget)
    cell_picks, chunks = move_streams(rng, 13, budget)
    chunks = list(chunks)
    assert [c[0] for c in chunks] == list(range(0, budget, STREAM_CHUNK))
    got = (cell_picks, *(np.concatenate([c[k] for c in chunks]) for k in range(1, 5)))
    # the picks are drawn as int32: the int64 draw's values, in half the bytes
    assert cell_picks.dtype == np.int32
    for stream, one_shot in zip(got[1:], want[1:]):
        assert stream.dtype == one_shot.dtype
    for stream, one_shot in zip(got, want):
        assert np.array_equal(stream, one_shot)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_move_streams_refuse_other_bit_generators():
    # MT19937 cannot advance by a number of draws; nothing is drawn from it
    rng = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(TypeError, match="MT19937"):
        move_streams(rng, 13, 100)
    assert rng.random() == np.random.Generator(np.random.MT19937(1)).random()


def test_anneal_stream_memory_is_bounded_by_a_chunk():
    """The compiled anneal holds the 4 B-per-move cell picks and a chunk or
    two of the float streams, not all five streams for the whole budget
    (48 B per move: 12.8 MB traced here before the streams were chunked,
    ≈2.7 MB since, ≈1.7 MB since the picks are int32)."""
    if not native_available():
        pytest.skip("native annealer core unavailable")
    problem, sites = _random_problem(1)
    # a first call pays one-time set-up that is not the anneal's
    anneal_native(problem, sites.copy(), seed=1, moves_per_cell=5, max_moves=100)
    budget = 64 * STREAM_CHUNK
    tracemalloc.start()
    try:
        stats = anneal_native(problem, sites, seed=1, moves_per_cell=budget, max_moves=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.moves == budget
    assert peak < 4 * budget + 256 * STREAM_CHUNK + (1 << 19), peak


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
