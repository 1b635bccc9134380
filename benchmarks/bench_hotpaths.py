"""Hot-path microbenchmarks: route / place / STA at LeNet scale.

Times the optimized implementations against their in-tree references on
one deterministic workload — LeNet-5 synthesized at layer granularity on
the ``small`` part — and writes the results to ``BENCH_hotpaths.json``:

* **route** — :func:`repro.route.astar_route_batch` (arena + certified
  window + premultiplied cost tables) vs a per-connection
  :func:`repro.route.astar_route_reference` loop, over every
  driver->sink connection of the placed design under a congested cost
  profile.  Paths are asserted equal; expansions per connection come
  from the ``route.astar.*`` counters.
* **place** — :func:`repro.place.anneal` (the compiled sweep whenever
  the C core is available — the committed baseline — else the
  incremental-bounding-box Python loop) vs
  :func:`repro.place._annealer_reference.anneal_reference` (rescan
  everything) from the same legalized start.  Placements and stats are
  asserted bit-identical.
* **sta** — wall clock of :func:`repro.timing.analyze` on the routed
  design (no reference variant; tracked for trend only).

Every timed section is measured interleaved (opt, ref, opt, ref, ...)
and reported as the min over repetitions, which suppresses machine noise
far better than back-to-back averaging.

``--check BASELINE`` compares the *speedup ratios* of this run against a
committed baseline and fails on a >20 % regression.  Ratios — not
absolute seconds — so the gate is meaningful on slower CI machines.
``--quick`` shrinks the noise-suppression repetitions for smoke runs;
the workload itself is identical, so quick ratios remain comparable to
the committed full-mode baseline.

``--vgg`` switches to the VGG-scale workload — VGG-16 synthesized at
block granularity on the ``ku5p-like`` part (~33 k cells, ~27 k route
targets) — and benchmarks the *full* P&R hot paths end to end instead
of microkernels:

* **route** — one complete :class:`repro.route.Router` negotiation
  (compiled core / structure-of-arrays fast path) vs the retained
  scalar oracle (``soa=False``).  Routes and result stats are asserted
  byte-identical before timing.
* **place** — :func:`repro.place.anneal` (dispatching to the compiled
  sweep) vs :func:`repro.place.annealer.anneal_scalar`
  from the same legalized start, bit-identical placements asserted.

Usage::

    python benchmarks/bench_hotpaths.py [--quick] [--out BENCH_hotpaths.json]
    python benchmarks/bench_hotpaths.py --quick --check benchmarks/BENCH_hotpaths.json
    python benchmarks/bench_hotpaths.py --vgg --quick --check benchmarks/BENCH_hotpaths_vgg.json
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import sys
import time

import numpy as np

from repro._util import make_rng
from repro.cnn import lenet5, vgg16
from repro.fabric import Device, RoutingGraph
from repro.place import place_design
from repro.place._annealer_reference import anneal_reference
from repro.place.annealer import anneal, anneal_scalar
from repro.place.global_place import global_place
from repro.place.legalize import legalize
from repro.place.problem import PlacementProblem
from repro.obs.span import Tracer
from repro.route import Router, astar_route_batch, astar_route_reference
from repro.synth import synthesize_network
from repro.timing import analyze

SEED = 7
WEIGHT = 1.15  # PathFinder's reroute heuristic weight


def _build_workloads():
    """One synthesized+placed LeNet design and its route connections."""
    device = Device.from_name("small")
    synth = synthesize_network(lenet5(), granularity="layer", rom_weights=True)
    design = synth.top
    place_design(design, device, seed=SEED)
    nrows = device.nrows
    pairs = []
    for net in design.nets.values():
        if net.is_clock or not net.driver:
            continue
        driver = design.cells[net.driver]
        if not driver.is_placed:
            continue
        src = driver.placement[0] * nrows + driver.placement[1]
        for sink_name in net.sinks:
            sink = design.cells[sink_name]
            if sink.is_placed:
                pairs.append((src, sink.placement[0] * nrows + sink.placement[1]))
    return device, design, pairs


def _interleaved_min(fn_opt, fn_ref, reps):
    # GC pauses land on whichever variant happens to be running; collect
    # between measurements instead so neither side pays for the other's
    # garbage.
    opt_s = ref_s = float("inf")
    was_enabled = gc.isenabled()
    try:
        for _ in range(reps):
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            fn_opt()
            opt_s = min(opt_s, time.perf_counter() - t0)
            gc.enable()
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            fn_ref()
            ref_s = min(ref_s, time.perf_counter() - t0)
            gc.enable()
    finally:
        if was_enabled:
            gc.enable()
    return opt_s, ref_s


def bench_route(device, pairs, reps):
    nrows, ncols = device.nrows, device.ncols
    rng = np.random.default_rng(3)
    n_nodes = nrows * ncols
    # Congestion profile of a mid-negotiation iteration: a few discrete
    # present-cost levels plus continuous history accumulation.
    cost = (
        1.0
        + 1.14 * rng.integers(0, 3, size=n_nodes).astype(float)
        + 0.35 * rng.random(n_nodes) * 4.0
    )

    def run_opt():
        return astar_route_batch(pairs, nrows, ncols, cost, heuristic_weight=WEIGHT)

    def run_ref():
        return [
            astar_route_reference(s, d, nrows, ncols, cost, heuristic_weight=WEIGHT)
            for s, d in pairs
        ]

    tracer = Tracer()
    with tracer.activate():
        opt_paths = run_opt()
    assert opt_paths == run_ref(), "optimized A* diverged from reference"
    expansions = tracer.metrics.counter("route.astar.expansions").value
    calls = tracer.metrics.counter("route.astar.calls").value

    opt_s, ref_s = _interleaved_min(run_opt, run_ref, reps)
    return {
        "connections": len(pairs),
        "opt_s": round(opt_s, 4),
        "ref_s": round(ref_s, 4),
        "speedup": round(ref_s / opt_s, 3),
        "expansions": int(expansions),
        "expansions_per_connection": round(expansions / max(calls, 1), 1),
    }


def bench_place(device, reps, max_moves):
    synth = synthesize_network(lenet5(), granularity="layer", rom_weights=True)
    # Same pipeline as place_design at medium effort: the anneal's cost
    # profile (acceptance rate, rescan frequency) depends on start quality.
    problem = PlacementProblem.from_design(synth.top, device)
    start = legalize(problem, global_place(problem, make_rng(SEED), iters=30))

    sites_opt = start.copy()
    sites_ref = start.copy()
    stats_opt = anneal(problem, sites_opt, seed=SEED, max_moves=max_moves)
    stats_ref = anneal_reference(problem, sites_ref, seed=SEED, max_moves=max_moves)
    assert np.array_equal(sites_opt, sites_ref), "incremental anneal diverged"
    assert stats_opt.final_cost == stats_ref.final_cost

    opt_s, ref_s = _interleaved_min(
        lambda: anneal(problem, start.copy(), seed=SEED, max_moves=max_moves),
        lambda: anneal_reference(problem, start.copy(), seed=SEED, max_moves=max_moves),
        reps,
    )
    return {
        "cells": problem.n_movable,
        "moves": stats_opt.moves,
        "opt_s": round(opt_s, 4),
        "ref_s": round(ref_s, 4),
        "speedup": round(ref_s / opt_s, 3),
    }


def bench_route_vgg(device, design, reps):
    """One full Router negotiation: compiled/soa fast path vs the
    retained scalar oracle (``soa=False``), byte-identical results."""
    from repro.route.native import native_available

    blob = pickle.dumps(design)

    def run(soa):
        d = pickle.loads(blob)
        graph = RoutingGraph(device)
        router = Router(device, graph, seed=SEED, soa=soa)
        t0 = time.perf_counter()
        res = router.route(d)
        elapsed = time.perf_counter() - t0
        routes = {name: net.routes for name, net in d.nets.items()}
        stats = (res.routed, res.failed, res.iterations, res.wirelength,
                 res.overused_nodes)
        return elapsed, routes, stats

    _t, routes_opt, stats_opt = run(True)
    _t, routes_ref, stats_ref = run(False)
    assert routes_opt == routes_ref, "fast route diverged from scalar oracle"
    assert stats_opt == stats_ref, (stats_opt, stats_ref)

    opt_s = ref_s = float("inf")
    for _ in range(reps):
        gc.collect()
        opt_s = min(opt_s, run(True)[0])
        gc.collect()
        ref_s = min(ref_s, run(False)[0])
    return {
        "connections": stats_opt[0],
        "iterations": stats_opt[2],
        "wirelength": stats_opt[3],
        "native": native_available(),
        "opt_s": round(opt_s, 4),
        "ref_s": round(ref_s, 4),
        "speedup": round(ref_s / opt_s, 3),
    }


def bench_place_vgg(device, reps, max_moves):
    """Full-dispatch anneal (compiled sweep) vs the scalar
    implementation, bit-identical placements asserted."""
    from repro.place.native import native_available

    synth = synthesize_network(vgg16(), granularity="block", rom_weights=False)
    problem = PlacementProblem.from_design(synth.top, device)
    start = legalize(problem, global_place(problem, make_rng(SEED), iters=30))

    sites_opt = start.copy()
    sites_ref = start.copy()
    stats_opt = anneal(problem, sites_opt, seed=SEED, max_moves=max_moves)
    stats_ref = anneal_scalar(problem, sites_ref, seed=SEED, max_moves=max_moves)
    assert np.array_equal(sites_opt, sites_ref), "dispatch anneal diverged"
    key = ("moves", "accepted", "initial_cost", "final_cost")
    assert tuple(getattr(stats_opt, k) for k in key) == tuple(
        getattr(stats_ref, k) for k in key
    )

    opt_s, ref_s = _interleaved_min(
        lambda: anneal(problem, start.copy(), seed=SEED, max_moves=max_moves),
        lambda: anneal_scalar(problem, start.copy(), seed=SEED, max_moves=max_moves),
        reps,
    )
    return {
        "cells": problem.n_movable,
        "moves": stats_opt.moves,
        "native": native_available(),
        "opt_s": round(opt_s, 4),
        "ref_s": round(ref_s, 4),
        "speedup": round(ref_s / opt_s, 3),
    }


def bench_sta(device, design, reps):
    graph = RoutingGraph(device)
    Router(device, graph, seed=SEED).route(design)
    wall = float("inf")
    report = None
    for _ in range(reps):
        t0 = time.perf_counter()
        report = analyze(design, device, graph)
        wall = min(wall, time.perf_counter() - t0)
    return {
        "wall_s": round(wall, 4),
        "fmax_mhz": round(report.fmax_mhz, 2),
        "n_paths": report.n_paths,
    }


def check_against(current, baseline_path, tolerance=0.20):
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    for key in ("route", "place"):
        base = baseline[key]["speedup"]
        now = current[key]["speedup"]
        floor = (1.0 - tolerance) * base
        status = "ok" if now >= floor else "REGRESSED"
        print(f"  {key}: speedup {now:.2f}x vs baseline {base:.2f}x "
              f"(floor {floor:.2f}x) {status}")
        if now < floor:
            failures.append(key)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions and a reduced anneal budget")
    parser.add_argument("--vgg", action="store_true",
                        help="VGG-scale workload: full Router negotiation and "
                             "full-dispatch anneal vs their scalar oracles")
    parser.add_argument("--out", default=None,
                        help="where to write the results JSON (default "
                             "BENCH_hotpaths.json, or BENCH_hotpaths_vgg.json "
                             "with --vgg)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail if speedups regress >20%% vs this baseline")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = "BENCH_hotpaths_vgg.json" if args.vgg else "BENCH_hotpaths.json"

    # --quick cuts repetitions only; the workload stays at full scale so
    # the ratios measure the same amortization either way.
    max_moves = 400_000

    if args.vgg:
        route_reps, place_reps, sta_reps = (2, 1, 1) if args.quick else (5, 3, 3)
        device = Device.from_name("ku5p-like")
        synth = synthesize_network(vgg16(), granularity="block",
                                   rom_weights=False)
        design = synth.top
        place_design(design, device, seed=SEED)
        results = {
            "schema": 1,
            "network": "vgg16",
            "device": device.name,
            "quick": args.quick,
            "route": bench_route_vgg(device, design, route_reps),
            "place": bench_place_vgg(device, place_reps, max_moves),
            "sta": bench_sta(device, design, sta_reps),
        }
    else:
        route_reps, place_reps, sta_reps = (3, 1, 1) if args.quick else (20, 5, 3)
        device, design, pairs = _build_workloads()
        results = {
            "schema": 1,
            "network": "lenet5",
            "device": device.name,
            "quick": args.quick,
            "route": bench_route(device, pairs, route_reps),
            "place": bench_place(device, place_reps, max_moves),
            "sta": bench_sta(device, design, sta_reps),
        }

    print(json.dumps(results, indent=2))
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        print(f"checking against {args.check} (tolerance 20%)")
        failures = check_against(results, args.check)
        if failures:
            print(f"FAIL: speedup regression in: {', '.join(failures)}")
            return 1
        print("baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
