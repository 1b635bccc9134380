"""Incremental-STA benchmark: session pipelining vs reference-per-edit.

Times the phys-opt pipelining loop (:func:`repro.timing.pipeline_to_target`
driven to an unreachable target, so it inserts registers until no split
helps and finishes with one reverted attempt) with two timing backends:

* **opt** — one long-lived :class:`repro.timing.IncrementalSta` session:
  the timing graph compiles once, then every insertion pays a scan +
  memoized edge delays + cone-limited repropagation;
* **ref** — :func:`repro.timing.analyze_reference` re-run from scratch
  after every edit, the way the loop worked before sessions existed.

Both backends run on **flat** designs (objects, rebuilt per repetition
with ``design_from_dict``): what is measured is the session's object
diff.  A block-backed design — the stitched top as the flow holds it
since PR 23, whose placed components the graph compiles as pre-built
runs of rows — is not benchmarked here; its cost is the
``timing.IncrementalSta.analyze`` row of the end-to-end ledger and its
equality to this path ``tests/test_block_design.py``.

Every workload asserts the two backends produce **bit-identical**
reports (period, critical path, ``n_paths``) at every step before any
timing is taken, so the speedup can never come from divergence.

Workloads (results keyed by name in ``BENCH_sta.json``):

* ``lenet5_flat`` — monolithic LeNet-5 on the ``small`` part (nothing
  locked, many splittable nets; the gated workload);
* ``lenet5_preimpl`` — the stitched pre-implemented LeNet (component
  internals locked, only stitch nets splittable): gated like every
  workload against its baseline ratio, with no hard floor of its own;
* ``vgg16_flat`` — the monolithic block-granularity VGG-16 baseline on
  the ``ku5p-like`` part, register budget capped so the workload stays
  bounded (full mode only — placing and routing ~31 k cells dominates
  setup).  The *stitched* VGG is deliberately not benchmarked: at low
  component effort its critical path sits inside locked component
  internals, so ``pipeline_to_target`` finds no splittable hop and the
  loop degenerates to a single analysis.

Every timed section is measured interleaved (opt, ref, opt, ref, ...)
and reported as the min over repetitions.  ``--check BASELINE``
compares *speedup ratios* against a committed baseline (fails on a
>20 % regression) and enforces the >=3x floor on ``lenet5_flat``;
``--quick`` cuts repetitions and skips the VGG workload but keeps the
LeNet workloads identical, so quick ratios remain comparable.

``--scenario eco`` switches to the ECO workloads (results keyed in
``BENCH_eco.json``): a single-layer swap, applied two ways —
incrementally through :class:`repro.eco.EcoEngine` on the stitched
accelerator with a warm STA session (rip up only the affected stitch
nets, reroute just those, cone-limited re-time), versus the **full
recompile** the edit would cost without the flow: the monolithic
baseline re-placed, re-routed, and re-timed from scratch through
:class:`VivadoFlow` (the same comparator as ``vgg16_flat`` above).  A
re-run of the pre-implemented flow from the variant database is also
reported (``reflow_s``, informational).  Before any timing, the
incremental result is asserted bit-identical — design, timing, and DRC
findings — to the :func:`repro.eco.eco_reference` oracle replaying the
same delta.  ``vgg16_swap`` carries the >=5x acceptance floor in
``--check`` mode — the paper's "swap one layer without recompiling"
claim, quantified.

Usage::

    python benchmarks/bench_sta.py [--quick] [--out BENCH_sta.json]
    python benchmarks/bench_sta.py --quick --check benchmarks/BENCH_sta.json
    python benchmarks/bench_sta.py --scenario eco --quick
    --out BENCH_eco.json --check benchmarks/BENCH_eco.json

The results JSON is written only where ``--out`` names it.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import sys
import time

from repro.cnn import group_components, lenet5, vgg16
from repro.eco import DesignDelta, EcoEngine, LayerReplace, eco_reference, matches_reference
from repro.fabric import Device
from repro.netlist.checkpoint import design_from_dict, design_to_dict
from repro.rapidwright import ComponentDatabase, PreImplementedFlow
from repro.timing import IncrementalSta, analyze_reference, pipeline_to_target
from repro.vivado import VivadoFlow

from _harness import check_against, interleaved_min

SEED = 0
FLAT_SPEEDUP_FLOOR = 3.0  # acceptance gate for lenet5_flat in --check mode
ECO_SPEEDUP_FLOOR = 5.0   # acceptance gate for vgg16_swap in --check mode


class RefPerEditSession:
    """Drop-in session that recomputes from scratch on every analyze()."""

    def __init__(self, design, device, graph):
        self.design = design
        self.device = device
        self.graph = graph

    def analyze(self):
        return analyze_reference(self.design, self.device, self.graph)


class Recording:
    """Session wrapper collecting every report for the identity check."""

    def __init__(self, inner):
        self.inner = inner
        self.reports = []

    @property
    def design(self):
        return self.inner.design

    def analyze(self):
        report = self.inner.analyze()
        self.reports.append((report.period_ps, tuple(report.critical_path),
                             report.n_paths))
        return report


# -- workload construction -----------------------------------------------------


def build_lenet_flat():
    device = Device.from_name("small")
    flow = VivadoFlow(device, seed=SEED)
    result = flow.run(lenet5(), granularity="layer", rom_weights=True)
    return result.design, device, flow.graph


def build_lenet_preimpl():
    device = Device.from_name("small")
    flow = PreImplementedFlow(device, component_effort="low", seed=SEED)
    net = lenet5()
    result = flow.run(net, rom_weights=True)
    return result.design, device, flow.graph


def build_vgg_flat():
    device = Device.from_name("ku5p-like")
    flow = VivadoFlow(device, seed=SEED)
    result = flow.run(vgg16(), granularity="block", rom_weights=False)
    return result.design, device, flow.graph


def _pipeline_run(design, device, graph, make_session, max_regs):
    """Pipeline *design* to an unreachable target; returns every report
    and the number of registers inserted."""
    session = Recording(make_session(design, device, graph))
    result = pipeline_to_target(design, device, 0.0, graph=graph,
                                session=session, max_regs=max_regs)
    return session.reports, result.inserted


def bench_workload(name, builder, reps, max_regs=64):
    base, device, graph = builder()

    def run_opt(design):
        return _pipeline_run(design, device, graph, IncrementalSta, max_regs)

    def run_ref(design):
        return _pipeline_run(design, device, graph, RefPerEditSession, max_regs)

    reports_opt, inserted_opt = run_opt(copy.deepcopy(base))
    reports_ref, inserted_ref = run_ref(copy.deepcopy(base))
    assert inserted_opt == inserted_ref, f"{name}: insertion counts diverged"
    assert reports_opt == reports_ref, f"{name}: reports not bit-identical"

    # The deepcopy (pure harness setup, identical for both backends) stays
    # outside the measurement so the ratio reflects STA work: for opt, the
    # one-time graph compile plus per-edit incremental analyses; for ref,
    # a full re-analysis per edit.
    opt_s, ref_s = interleaved_min(run_opt, run_ref, reps,
                                   fresh=lambda: copy.deepcopy(base))
    return {
        "cells": len(base.cells),
        "nets": len(base.nets),
        "analyses": len(reports_opt),
        "inserted": inserted_opt,
        "opt_s": round(opt_s, 4),
        "ref_s": round(ref_s, 4),
        "speedup": round(ref_s / opt_s, 3),
    }


# -- eco scenario: incremental layer swap vs full recompile -------------------


def _middle_conv(components):
    convs = [c for c in components if "conv" in c.name]
    return convs[len(convs) // 2] if convs else components[len(components) // 2]


def build_eco_workload(model_fn, part, granularity, rom_weights):
    """One routed accelerator plus everything both comparators need."""
    device = Device.from_name(part)
    flow = PreImplementedFlow(device, component_effort="low", seed=SEED)
    net = model_fn()
    result = flow.run(net, granularity=granularity, rom_weights=rom_weights)
    db = result.extras["database"]
    comp = _middle_conv(group_components(net, granularity))
    # The variant checkpoint (same signature, different implementation
    # seed) is setup cost common to both sides: the ECO swaps it in, the
    # full recompile composes from a database holding it.
    vdb = ComponentDatabase(device)
    vdb.build([comp], rom_weights=rom_weights, effort="low", seed=SEED + 1)
    db_swap = ComponentDatabase(device)
    db_swap.records = dict(db.records)
    db_swap.records.update(vdb.records)
    return {
        "device": device, "flow": flow, "net": net, "granularity": granularity,
        "doc": design_to_dict(result.design), "comp": comp, "vdb": vdb,
        "db": db, "db_swap": db_swap, "rom_weights": rom_weights,
    }


def _eco_apply(w, drc="off"):
    """Incrementally swap the layer on a fresh copy; time apply() only.

    The engine's STA session is warmed before the clock starts: in
    production (the serve farm, an edit/retune loop) the session is
    long-lived — the one-time graph compile was paid when the design was
    built, and every ECO rides the warm memo.  The recompile comparators
    re-time from scratch because that is exactly what recompiling costs.
    """
    design = design_from_dict(w["doc"])
    delta = DesignDelta(
        f"swap:{w['comp'].name}", (LayerReplace(w["comp"].name, w["vdb"].get(w["comp"].signature)),)
    )
    engine = EcoEngine(design, w["device"], graph=w["flow"].graph,
                       delays=w["flow"].delays, drc=drc, database=w["db"])
    engine.session.analyze()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        eco = engine.apply(delta)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return elapsed, design, eco


def _eco_recompile(w):
    """The pre-ECO world: one layer changed, recompile the monolith —
    full placement, routing, and STA through the baseline flow."""
    flow = VivadoFlow(w["device"], seed=SEED)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = flow.run(w["net"], granularity=w["granularity"],
                          rom_weights=w["rom_weights"])
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return elapsed, result


def _eco_reflow(w):
    """The stitched middle ground: re-run the pre-implemented flow from
    the database holding the variant checkpoint (informational)."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = w["flow"].run(w["net"], granularity=w["granularity"],
                               rom_weights=w["rom_weights"], database=w["db_swap"])
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return elapsed, result


def bench_eco_workload(name, model_fn, part, granularity, rom_weights, reps):
    w = build_eco_workload(model_fn, part, granularity, rom_weights)

    # Identity gate before any timing: the incremental edit must match
    # the full re-route/re-time oracle bit for bit (DRC findings too).
    _t, edited, eco = _eco_apply(w, drc="warn")
    base = design_from_dict(w["doc"])
    delta = DesignDelta(
        f"swap:{w['comp'].name}", (LayerReplace(w["comp"].name, w["vdb"].get(w["comp"].signature)),)
    )
    ref = eco_reference(base, delta, w["device"], graph=w["flow"].graph,
                        delays=w["flow"].delays, drc="warn", database=w["db"])
    assert matches_reference(edited, eco, ref), f"{name}: ECO diverged from the oracle"

    eco_s = recompile_s = reflow_s = float("inf")
    for _ in range(reps):
        eco_s = min(eco_s, _eco_apply(w)[0])
        recompile_s = min(recompile_s, _eco_recompile(w)[0])
        reflow_s = min(reflow_s, _eco_reflow(w)[0])
    return {
        "cells": len(edited.cells),
        "nets": len(edited.nets),
        "swapped": w["comp"].name,
        "ripped": len(eco.ripped),
        "rerouted": eco.route.routed,
        "eco_s": round(eco_s, 4),
        "recompile_s": round(recompile_s, 4),
        "reflow_s": round(reflow_s, 4),
        "speedup": round(recompile_s / eco_s, 3),
        "speedup_vs_reflow": round(reflow_s / eco_s, 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions; skips the VGG STA workload")
    parser.add_argument("--scenario", choices=("sta", "eco"), default="sta",
                        help="sta: pipelining loop vs reference-per-edit; "
                             "eco: layer swap vs full recompile")
    parser.add_argument("--out", default=None,
                        help="where to write the results JSON (not written without it)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail if speedups regress >20%% vs this baseline")
    args = parser.parse_args(argv)

    results = {"schema": 1, "quick": args.quick, "workloads": {}}
    if args.scenario == "eco":
        floors = {"vgg16_swap": ECO_SPEEDUP_FLOOR}
        plan = [
            ("lenet5_swap", lenet5, "small", "layer", True,
             2 if args.quick else 5),
            ("vgg16_swap", vgg16, "ku5p-like", "block", False,
             2 if args.quick else 5),
        ]
        for name, model_fn, part, granularity, rom_weights, reps in plan:
            print(f"benchmarking {name} ({reps} reps)...")
            results["workloads"][name] = bench_eco_workload(
                name, model_fn, part, granularity, rom_weights, reps
            )
    else:
        floors = {"lenet5_flat": FLAT_SPEEDUP_FLOOR}
        plan = [
            ("lenet5_flat", build_lenet_flat, 3 if args.quick else 10, 64),
            ("lenet5_preimpl", build_lenet_preimpl, 3 if args.quick else 5, 64),
        ]
        if not args.quick:
            plan.append(("vgg16_flat", build_vgg_flat, 2, 12))
        for name, builder, reps, max_regs in plan:
            print(f"benchmarking {name} ({reps} reps)...")
            results["workloads"][name] = bench_workload(name, builder, reps, max_regs)

    print(json.dumps(results, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.check:
        print(f"checking against {args.check} (tolerance 20%)")
        failures = check_against(results, args.check, floors)
        if failures:
            print(f"FAIL: speedup regression in: {', '.join(failures)}")
            return 1
        print("baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
