"""Hot-path benchmarks: the compiled place and route cores vs their oracles.

Each kernel has two implementations — the C core every supported host
runs and the Python reference that is its oracle and its fallback — and
this script times one against the other on a deterministic workload,
end to end: VGG-16 at block granularity on the ``ku5p-like`` part
(~33 k cells, ~27 k connections) -> ``BENCH_hotpaths_vgg.json``.  It
reports three rows:

* **route** — one complete negotiation, :meth:`repro.route.Router.route`
  (the compiled core) vs :meth:`repro.route.Router.route_reference` (the
  scalar schedule), on the placed design.  Routes and result fields are
  asserted byte-identical before timing.
* **place** — :func:`repro.place.anneal` (the compiled sweep) vs
  :func:`repro.place._annealer_reference.anneal_reference` (rescan
  everything) from the same legalized start.  Placements and stats are
  asserted bit-identical.
* **sta** — wall clock of :func:`repro.timing.analyze` on the routed
  design (no reference variant; tracked for trend only).

Without a core (no compiler, ``REPRO_NATIVE=0``) both sides of a row are
the reference and the speedup reads ≈1; the ``native`` field says which
it was.

Every timed section is measured interleaved (opt, ref, opt, ref, ...)
and reported as the min over repetitions, which suppresses machine noise
far better than back-to-back averaging.

``--check BASELINE`` compares the *speedup ratios* of this run against a
committed baseline and fails on a >20 % regression.  Ratios — not
absolute seconds — so the gate is meaningful on slower CI machines.
``--quick`` shrinks the noise-suppression repetitions for smoke runs;
the workload itself is identical, so quick ratios remain comparable to
the committed full-mode baseline.

Usage::

    python benchmarks/bench_hotpaths.py [--quick] [--out BENCH_hotpaths_vgg.json]
    python benchmarks/bench_hotpaths.py --quick --check benchmarks/BENCH_hotpaths_vgg.json

The results JSON is written only where ``--out`` names it.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time

import numpy as np

from repro._util import make_rng
from repro.cnn import vgg16
from repro.fabric import Device, RoutingGraph
from repro.place import place_design
from repro.place import native as place_native
from repro.place._annealer_reference import anneal_reference
from repro.place.annealer import anneal
from repro.place.global_place import global_place
from repro.place.legalize import legalize
from repro.place.problem import PlacementProblem
from repro.route import Router
from repro.route import native as route_native
from repro.synth import synthesize_network
from repro.timing import analyze

from _harness import check_against, interleaved_min

SEED = 7


def bench_route(device, design, reps):
    """One full negotiation of the placed *design*: compiled core vs the
    scalar oracle, byte-identical results."""
    blob = pickle.dumps(design)
    router = Router(device, RoutingGraph(device))

    def outcome(route):
        d = pickle.loads(blob)
        result = route(d)
        return {name: net.routes for name, net in d.nets.items()}, vars(result)

    routes, result = outcome(router.route)
    routes_ref, result_ref = outcome(router.route_reference)
    assert routes == routes_ref, "compiled route diverged from the oracle"
    assert result == result_ref, (result, result_ref)

    opt_s, ref_s = interleaved_min(
        router.route, router.route_reference, reps, fresh=lambda: pickle.loads(blob)
    )
    return {
        "connections": result["routed"],
        "iterations": result["iterations"],
        "wirelength": result["wirelength"],
        "native": route_native.native_available(),
        "opt_s": round(opt_s, 4),
        "ref_s": round(ref_s, 4),
        "speedup": round(ref_s / opt_s, 3),
    }


def bench_place(device, design, reps, max_moves):
    """Anneal of the unplaced *design* from its legalized global
    placement: compiled sweep vs the rescan-everything reference,
    bit-identical placements."""
    # Same pipeline as place_design at medium effort: the anneal's cost
    # profile (acceptance rate, rescan frequency) depends on start quality.
    problem = PlacementProblem.from_design(design, device)
    start = legalize(problem, global_place(problem, make_rng(SEED), iters=30))

    budget = dict(moves_per_cell=40, max_moves=max_moves)
    sites_opt = start.copy()
    sites_ref = start.copy()
    stats_opt = anneal(problem, sites_opt, seed=SEED, **budget)
    stats_ref = anneal_reference(problem, sites_ref, seed=SEED, **budget)
    assert np.array_equal(sites_opt, sites_ref), "compiled anneal diverged"
    key = ("moves", "accepted", "initial_cost", "final_cost")
    assert [getattr(stats_opt, k) for k in key] == [getattr(stats_ref, k) for k in key]

    opt_s, ref_s = interleaved_min(
        lambda sites: anneal(problem, sites, seed=SEED, **budget),
        lambda sites: anneal_reference(problem, sites, seed=SEED, **budget),
        reps, fresh=start.copy,
    )
    return {
        "cells": problem.n_movable,
        "moves": stats_opt.moves,
        "native": place_native.native_available(),
        "opt_s": round(opt_s, 4),
        "ref_s": round(ref_s, 4),
        "speedup": round(ref_s / opt_s, 3),
    }


def bench_sta(device, design, reps):
    graph = RoutingGraph(device)
    Router(device, graph).route(design)
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (same workload)")
    parser.add_argument("--out", default=None,
                        help="where to write the results JSON (not written without it)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail if speedups regress >20%% vs this baseline")
    args = parser.parse_args(argv)

    # --quick cuts repetitions only; the workload stays at full scale so
    # the ratios measure the same amortization either way.
    max_moves = 400_000
    route_reps, place_reps, sta_reps = (2, 1, 1) if args.quick else (5, 3, 3)

    network = vgg16()
    device = Device.from_name("ku5p-like")
    unplaced = synthesize_network(network, granularity="block", rom_weights=False).top
    design = pickle.loads(pickle.dumps(unplaced))
    place_design(design, device, seed=SEED)
    results = {
        "schema": 2,
        "network": network.name,
        "device": device.name,
        "quick": args.quick,
        "route": bench_route(device, design, route_reps),
        "place": bench_place(device, unplaced, place_reps, max_moves),
        "sta": bench_sta(device, design, sta_reps),
    }

    print(json.dumps(results, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.check:
        print(f"checking against {args.check} (tolerance 20%)")
        gated = {"workloads": {key: results[key] for key in ("route", "place")}}
        failures = check_against(gated, args.check)
        if failures:
            print(f"FAIL: speedup regression in: {', '.join(failures)}")
            return 1
        print("baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
