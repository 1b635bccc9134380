"""Property tests for placement (repro.place.legalize + repro.place.annealer).

Hypothesis over random connected designs on the small part:

* legalization assigns every movable cell a distinct site that belongs to
  its resource type's pool (hence on-fabric, inside the region);
* annealing only moves cells between legal sites — the placement stays
  distinct and on-pool — and its reported cost never gets worse than the
  initial legalized cost (best-seen restoration);
* the full :func:`place_design` facade produces a design that passes
  :meth:`Design.validate` against the device;
* the compiled annealer and the :func:`anneal` dispatcher, with and
  without the C core, are bit-identical — placements and stats — to the
  rescan-everything reference annealer at any seed and any chunk size of
  the move streams;
* the ``np.bincount`` global placer is bit-identical to the
  ``scipy.sparse`` formulation it replaced (kept here as the oracle).
"""

from __future__ import annotations

import ctypes
from functools import cache, reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro._native import build_library
from repro._util import make_rng, sum_left_to_right
from repro.fabric import Device, auto_pblock
from repro.netlist import Design
from repro.obs.span import Tracer
from repro.place import _annealer_reference as reference_mod
from repro.place import annealer as annealer_mod
from repro.place import native as native_mod
from repro.place import place_design
from repro.place._annealer_reference import anneal_reference
from repro.place.annealer import anneal
from repro.place.native import anneal_native, native_available
from repro.place.global_place import _spread, global_place
from repro.place.legalize import legalize
from repro.place.problem import NetPins, PlacementProblem
from repro.synth import gen_conv

SMALL = Device.from_name("small")


@st.composite
def placement_designs(draw):
    """Random SLICE/DSP designs with random multi-sink connectivity; up to
    three extra SLICE cells are locked in place, so nets carry fixed pins."""
    seed = draw(st.integers(0, 10_000))
    n_slice = draw(st.integers(2, 14))
    n_dsp = draw(st.integers(0, 2))
    n_locked = draw(st.integers(0, 3))
    rng = np.random.default_rng(seed)
    design = Design(f"pl{seed}")
    names = []
    for i in range(n_slice):
        design.new_cell(f"c{i}", "SLICE", luts=1)
        names.append(f"c{i}")
    slice_sites = SMALL.sites_of("SLICE")
    for i, k in enumerate(rng.choice(slice_sites.shape[0], size=n_locked, replace=False)):
        site = (int(slice_sites[k, 0]), int(slice_sites[k, 1]))
        design.new_cell(f"l{i}", "SLICE", luts=1, placement=site).locked = True
        names.append(f"l{i}")
    for i in range(n_dsp):
        design.new_cell(f"m{i}", "DSP48E2")
        names.append(f"m{i}")
    for k in range(draw(st.integers(1, 8))):
        driver = names[int(rng.integers(0, len(names)))]
        sinks = sorted(
            {names[int(s)] for s in rng.integers(0, len(names), size=int(rng.integers(1, 4)))}
            - {driver}
        )
        if sinks:
            design.connect(f"n{k}", driver, sinks, width=int(rng.integers(1, 4)))
    return design, seed


def _legal(problem: PlacementProblem, sites: np.ndarray) -> None:
    assert sites.shape == (problem.n_movable, 2)
    taken = {tuple(s) for s in sites.tolist()}
    assert len(taken) == problem.n_movable, "two cells share a site"
    for i, ctype in enumerate(problem.ctypes):
        pool = {(int(c), int(r)) for c, r in problem.site_pools[ctype]}
        site = (int(sites[i, 0]), int(sites[i, 1]))
        assert site in pool, f"{problem.names[i]} ({ctype}) off its pool at {site}"
        assert 0 <= site[0] < SMALL.ncols and 0 <= site[1] < SMALL.nrows


@settings(max_examples=25, deadline=None)
@given(placement_designs())
def test_legalize_assigns_distinct_on_pool_sites(case):
    design, seed = case
    problem = PlacementProblem.from_design(design, SMALL)
    rng = make_rng(seed)
    pos = global_place(problem, rng, iters=5)
    sites = legalize(problem, pos)
    _legal(problem, sites)


@settings(max_examples=20, deadline=None)
@given(placement_designs())
def test_anneal_keeps_legality_and_never_worse(case):
    design, seed = case
    problem = PlacementProblem.from_design(design, SMALL)
    rng = make_rng(seed)
    sites = legalize(problem, global_place(problem, rng, iters=5))
    stats = anneal(problem, sites, seed=rng, moves_per_cell=20, max_moves=2_000)
    _legal(problem, sites)
    assert stats.final_cost <= stats.initial_cost + 1e-9
    assert 0 <= stats.accepted <= stats.moves
    assert 0.0 <= stats.improvement <= 1.0 or stats.initial_cost == 0


@pytest.mark.parametrize("core", ["native", "fallback"])
def test_anneal_dispatch_matches_reference(monkeypatch, request, core):
    """``anneal`` picks its implementation by core availability and nothing
    else: it equals the reference both with the C core and with
    ``REPRO_NATIVE=0`` (when it must run the reference itself)."""
    if core == "native":
        if not native_available():
            pytest.skip("native annealer core unavailable")
    else:
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native_mod._core.cache_clear()  # forget the loaded core, and again after
        request.addfinalizer(native_mod._core.cache_clear)
        assert not native_available()
    ran = []
    real_native, real_reference = native_mod.anneal_native, anneal_reference
    monkeypatch.setattr(
        native_mod, "anneal_native",
        lambda *a, **kw: ran.append("native") or real_native(*a, **kw),
    )
    monkeypatch.setattr(
        reference_mod, "anneal_reference",
        lambda *a, **kw: ran.append("reference") or real_reference(*a, **kw),
    )
    design = gen_conv(1, 8, 8, 3, 2, rom_weights=True)
    design.pblock = auto_pblock(SMALL, design.site_demand(), anchor=(0, 0))
    problem = PlacementProblem.from_design(design, SMALL)
    assert problem.n_movable > 0
    sites = legalize(problem, global_place(problem, make_rng(3), iters=5))
    sites_ref = sites.copy()
    tracer = Tracer()
    with tracer.activate():
        stats = anneal(problem, sites, seed=3, moves_per_cell=20, max_moves=4_000)
    assert ran == (["native"] if core == "native" else ["reference"])
    # the annealing counters are in the trace whichever implementation ran
    assert tracer.metrics.counter("place.moves").value == stats.moves > 0
    assert tracer.metrics.counter("place.accepted").value == stats.accepted
    stats_ref = anneal_reference(
        problem, sites_ref, seed=3, moves_per_cell=20, max_moves=4_000
    )
    assert np.array_equal(sites, sites_ref)
    assert (stats.moves, stats.accepted) == (stats_ref.moves, stats_ref.accepted)
    assert stats.initial_cost == stats_ref.initial_cost
    assert stats.final_cost == stats_ref.final_cost


@settings(max_examples=10, deadline=None)
@given(placement_designs(), st.integers(1, 400))
def test_native_anneal_matches_reference(case, chunk):
    """Same contract for the compiled sweep, when the core builds here,
    whatever the chunk size the move streams arrive in (at most 380
    moves here, so the larger sizes take the whole budget at once)."""
    if not native_available():
        return
    design, seed = case
    problem = PlacementProblem.from_design(design, SMALL)
    sites = legalize(problem, global_place(problem, make_rng(seed), iters=5))
    sites_ref = sites.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(annealer_mod, "STREAM_CHUNK", chunk)
        stats = anneal_native(
            problem, sites, seed=seed, moves_per_cell=20, max_moves=2_000
        )
        stats_ref = anneal_reference(
            problem, sites_ref, seed=seed, moves_per_cell=20, max_moves=2_000
        )
    assert np.array_equal(sites, sites_ref)
    assert (stats.moves, stats.accepted) == (stats_ref.moves, stats_ref.accepted)
    assert stats.final_cost == stats_ref.final_cost


@settings(max_examples=10, deadline=None)
@given(placement_designs())
def test_place_design_yields_valid_placement(case):
    design, seed = case
    result = place_design(design, SMALL, effort="low", seed=seed)
    assert result.n_cells == sum(1 for c in design.cells.values() if not c.locked)
    design.validate(SMALL)  # in bounds, on matching tiles, one cell per site
    assert all(cell.is_placed for cell in design.cells.values())
    if result.anneal is not None:
        assert result.anneal.final_cost <= result.anneal.initial_cost + 1e-9


# -- global placement: numpy form vs the scipy.sparse form it replaced --------


def _global_place_scipy(problem, rng, iters=30, pull=0.7, spread_every=5,
                        spread_blend=0.25):
    """``global_place`` as it was written over ``scipy.sparse`` — the oracle."""
    sparse = pytest.importorskip("scipy.sparse")
    n = problem.n_movable
    bounds = problem.bounds()
    pos = problem.initial_positions(rng)
    if n == 0 or not problem.nets:
        return pos

    rows, cols, weights = [], [], []
    fixed_sum = np.zeros((len(problem.nets), 2), dtype=np.float64)
    pin_count = np.zeros(len(problem.nets), dtype=np.float64)
    for k, net in enumerate(problem.nets):
        for idx in net.movable:
            rows.append(k)
            cols.append(int(idx))
            weights.append(net.weight)
        if net.fixed.size:
            fixed_sum[k] = net.fixed.sum(axis=0)
        pin_count[k] = len(net.movable) + net.fixed.shape[0]
    shape = (len(problem.nets), n)
    weighted = sparse.csr_matrix((weights, (rows, cols)), shape=shape)
    binary = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)
    cell_weight = np.asarray(weighted.sum(axis=0)).ravel()
    cell_weight[cell_weight == 0] = 1.0

    for it in range(iters):
        centers = (binary @ pos + fixed_sum) / pin_count[:, None]
        target = (weighted.T @ centers) / cell_weight[:, None]
        lonely = np.asarray(binary.sum(axis=0)).ravel() == 0
        target[lonely] = pos[lonely]
        pos = pull * target + (1.0 - pull) * pos
        if spread_every and (it + 1) % spread_every == 0 and it + 1 < iters:
            pos = (1.0 - spread_blend) * pos + spread_blend * _spread(pos, bounds)

    c0, r0, c1, r1 = bounds
    pos[:, 0] = np.clip(pos[:, 0], c0, c1)
    pos[:, 1] = np.clip(pos[:, 1], r0, r1)
    return pos


@st.composite
def pin_problems(draw):
    """Hand-built problems ``from_design`` never produces: a cell listed
    twice on one net, nets with only fixed pins, cells on no net."""
    n = draw(st.integers(1, 12))
    cells = st.integers(0, n - 1)
    coords = st.tuples(st.integers(0, SMALL.ncols - 1), st.integers(0, SMALL.nrows - 1))
    nets = []
    for _ in range(draw(st.integers(1, 8))):
        movable = draw(st.lists(cells, min_size=0, max_size=5))  # repeats allowed
        fixed = draw(st.lists(coords, min_size=0 if movable else 1, max_size=3))
        nets.append(NetPins(
            movable=np.asarray(movable, dtype=np.int64),
            fixed=np.asarray(fixed, dtype=np.float64).reshape(-1, 2),
            weight=float(draw(st.integers(1, 9))) ** 0.5,
        ))
    modules = draw(st.lists(st.sampled_from([None, "a", "b"]), min_size=n, max_size=n))
    problem = PlacementProblem(
        design=Design("pins"), device=SMALL, region=None,
        names=[f"c{i}" for i in range(n)], ctypes=["SLICE"] * n,
        modules=modules, nets=nets,
    )
    return problem, draw(st.integers(0, 10_000))


@settings(max_examples=60, deadline=None)
@given(pin_problems())
def test_global_place_matches_scipy_form(case):
    problem, seed = case
    got = global_place(problem, make_rng(seed), iters=12)
    want = _global_place_scipy(problem, make_rng(seed), iters=12)
    assert np.array_equal(got, want)


@settings(max_examples=15, deadline=None)
@given(placement_designs())
def test_global_place_matches_scipy_form_on_designs(case):
    design, seed = case
    problem = PlacementProblem.from_design(design, SMALL)
    got = global_place(problem, make_rng(seed), iters=12)
    want = _global_place_scipy(problem, make_rng(seed), iters=12)
    assert np.array_equal(got, want)


def test_global_place_matches_scipy_form_on_lenet_component():
    device = Device.from_name("ku5p-like")
    design = gen_conv(6, 14, 14, 5, 16, rom_weights=True)  # LeNet conv2
    design.pblock = auto_pblock(device, design.site_demand(), anchor=(0, 0), slack=1.15)
    problem = PlacementProblem.from_design(design, device)
    got = global_place(problem, make_rng(0), iters=50)
    want = _global_place_scipy(problem, make_rng(0), iters=50)
    assert np.array_equal(got, want)


# -- the clump post-pass: C entry point vs the reference's tail ------------------


def _scattered_problem(seed: int):
    """A conv engine spread over the whole small part and *not* globally
    placed: plenty of pins sit 16+ tiles from their net's median, so the
    post-pass has moves to commit (the Hypothesis designs above are too
    small for that).  Three locked cells give some nets fixed pins."""
    design = gen_conv(2, 8, 8, 3, 4, rom_weights=True)
    rng = np.random.default_rng(seed)
    slices = [c for c in design.cells.values() if c.ctype == "SLICE"]
    pool = SMALL.sites_of("SLICE")
    for cell, k in zip(slices[:3], rng.choice(pool.shape[0], size=3, replace=False)):
        cell.placement = (int(pool[k, 0]), int(pool[k, 1]))
        cell.locked = True
    problem = PlacementProblem.from_design(design, SMALL)
    assert any(net.fixed.size for net in problem.nets)
    return problem, legalize(problem, problem.initial_positions(make_rng(seed)))


def _assert_same_anneal(problem, sites, seed, **kw):
    sites_ref = sites.copy()
    stats = anneal_native(problem, sites, seed=seed, **kw)
    stats_ref = anneal_reference(problem, sites_ref, seed=seed, **kw)
    assert np.array_equal(sites, sites_ref)
    assert (stats.moves, stats.accepted) == (stats_ref.moves, stats_ref.accepted)
    assert stats.initial_cost == stats_ref.initial_cost
    assert stats.final_cost == stats_ref.final_cost
    return stats


def _traced_anneal(anneal_fn, problem, sites, seed, budget):
    """Everything an anneal reports: sites and statistics, the
    ``place.cost`` / ``place.temperature`` samples (value, step) and the
    ``place.bbox.*`` counters."""
    tracer = Tracer()
    with tracer.activate():
        stats = anneal_fn(problem, sites, seed=seed, moves_per_cell=budget, max_moves=budget)
    result = (sites.tolist(), stats.moves, stats.accepted, stats.initial_cost, stats.final_cost)
    samples = [
        (e["name"], e["value"], e["attrs"].get("step"))
        for e in tracer.sink.events if e["ph"] == "sample"
    ]
    counters = [
        tracer.metrics.counter(name).value for name in ("place.bbox.fast", "place.bbox.rescan")
    ]
    return result, samples, counters


# 32 * 448: every checkpoint step (a multiple of budget // 32) is the first
# step of a 7-step and of a 64-step chunk; 32 * 447 + 31: the first one
# after step 0 is the last step of a chunk of either size (447 = 7 * 64 - 1)
@pytest.mark.parametrize("budget", [32 * 448, 32 * 447 + 31])
@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("seed", [0, 1])
def test_native_chunked_sweep_matches_one_call(monkeypatch, seed, chunk, budget):
    """The C sweep resumed at every chunk edge, at the default chunk and in
    one call over the whole budget, and the reference walking the same
    chunks, are one anneal: sites, statistics, checkpoint samples and
    bounding-box counters."""
    if not native_available():
        pytest.skip("native annealer core unavailable")
    problem, start = _scattered_problem(seed)
    default = _traced_anneal(anneal_native, problem, start.copy(), seed, budget)
    # at these seeds no checkpoint step is a no-move step, so all 32 are
    # taken and the chunk edges above are all crossed with a schedule live
    checkpoints = [step for name, _, step in default[1] if name == "place.cost" and step is not None]
    assert len(checkpoints) >= 32
    for size in (budget, chunk):
        monkeypatch.setattr(annealer_mod, "STREAM_CHUNK", size)
        assert _traced_anneal(anneal_native, problem, start.copy(), seed, budget) == default
    assert _traced_anneal(anneal_reference, problem, start.copy(), seed, budget)[0] == default[0]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("moves_per_cell", [1, 2])
def test_native_post_pass_matches_reference(seed, moves_per_cell):
    if not native_available():
        pytest.skip("native annealer core unavailable")
    problem, sites = _scattered_problem(seed)
    kw = dict(moves_per_cell=moves_per_cell, max_moves=100_000)
    swept = sites.copy()
    with mock.patch.object(annealer_mod, "CLUMP_PASSES", 0):
        without = _assert_same_anneal(problem, swept, seed, **kw)
    assert annealer_mod.CLUMP_PASSES == 4
    stats = _assert_same_anneal(problem, sites, seed, **kw)
    # the pass did commit moves, so the comparison above covered it
    assert stats.final_cost < without.final_cost
    assert not np.array_equal(sites, swept)


def _neumaier_sum(values):
    """Builtin ``sum`` as CPython >= 3.12 adds floats (compensated)."""
    values = list(values)
    if not values:
        return 0
    total, comp = values[0], 0.0
    for x in values[1:]:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and np.isfinite(comp) else total


@cache
def _core_sum():
    fn = build_library(native_mod._SOURCE, "anneal_core").sum_left_to_right
    fn.restype = ctypes.c_double
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    return fn


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e12, allow_nan=False) | st.floats(0.0, 1e-3), max_size=12))
@example([1.0, 1e100, 1.0, -1e100])  # 0.0 added plainly, 2.0 compensated
@example([0.1] * 10)
@example([-0.0])                     # 0 + -0.0 is +0.0
def test_core_sum_adds_left_to_right(values):
    """One float on every interpreter: a fold from 0, ``sum_left_to_right``
    over a list and over an array, and the core's cost sum called
    directly — never builtin ``sum``, which compensates from CPython 3.12."""
    fold = reduce(lambda a, b: a + b, values, 0)
    want = repr(fold)                    # tells +0.0 from -0.0
    assert repr(sum_left_to_right(values)) == want
    assert repr(sum_left_to_right(iter(values))) == want
    arr = np.asarray(values, dtype=np.float64)
    assert repr(sum_left_to_right(arr)) == want
    if native_available():
        got = _core_sum()(ctypes.c_void_p(arr.ctypes.data), len(values))
        assert repr(got) == repr(float(fold))


def test_native_post_pass_ignores_the_interpreters_sum(monkeypatch):
    """The reference and the core add net costs left to right, so what
    builtin ``sum`` does on this interpreter changes nothing: with it
    compensated (CPython 3.12's arithmetic) in both modules, the anneal
    is the one it was, and the two still agree."""
    if not native_available():
        pytest.skip("native annealer core unavailable")
    assert _neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert sum_left_to_right([1.0, 1e100, 1.0, -1e100]) == 0.0
    runs = []
    for patched in (False, True):
        if patched:
            for module in (native_mod, reference_mod):  # shadows the builtin there
                monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
        problem, sites = _scattered_problem(0)
        stats = _assert_same_anneal(problem, sites, 0, moves_per_cell=1, max_moves=100_000)
        runs.append((sites.tolist(), stats.initial_cost, stats.final_cost))
    assert runs[0] == runs[1]
