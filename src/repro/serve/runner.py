"""Job execution: one submission → one traced, cached flow run.

:func:`run_job` is what a scheduler worker actually calls.  It reuses
the existing flow machinery end to end rather than forking a parallel
executor:

* the submission's offline phase goes through
  :meth:`PreImplementedFlow.build_database`, which decomposes into
  :mod:`repro.engine` component-build tasks — so concurrent jobs share component
  builds through the farm's shared :class:`~repro.engine.cache.
  BuildCache` (two tenants building VGG pay for its conv layers once);
* the whole run executes under an obs tracer whose
  :class:`~repro.serve.progress.ProgressSink` streams per-stage events
  into the job's :class:`~repro.serve.progress.ProgressLog`;
* the finished *result document* (a JSON summary: Fmax, compile time,
  per-stage breakdown, utilization, power) is itself stored in the cache
  under the spec's content key, so resubmitting an identical spec is
  answered in milliseconds without touching the flow at all.
"""

from __future__ import annotations

import time

from ..obs.span import Tracer
from ..rapidwright import PreImplementedFlow
from ..vivado import VivadoFlow
from .progress import ProgressLog, ProgressSink
from .spec import JobSpec

__all__ = ["run_job", "build_result_doc"]

#: Bump to invalidate cached serve *results* (the component-build tier
#: has its own engine-level salt).
RESULT_SCHEMA = 1


def build_result_doc(spec: JobSpec, result, offline_s: float, wall_s: float) -> dict:
    """JSON-safe result summary of one finished flow run."""
    design = result.design
    usage = design.resource_usage()
    doc = {
        "schema": RESULT_SCHEMA,
        "network": spec.network_name,
        "part": spec.part,
        "flow": spec.flow,
        "granularity": spec.granularity,
        "seed": spec.seed,
        "fmax_mhz": round(result.fmax_mhz, 3),
        "runtime_s": round(result.runtime_s, 6),
        "offline_s": round(offline_s, 6),
        "wall_s": round(wall_s, 6),
        "stages": {k: round(v, 6) for k, v in result.timer.stages.items()},
        "cells": len(design.cells),
        "nets": len(design.nets),
        "utilization": {k: round(v, 6) for k, v in result.utilization(spec.device()).items()},
        "resources": {k: int(v) for k, v in sorted(usage.items())},
        "power_w": round(result.power.total_w, 6),
    }
    if result.route is not None:
        doc["routed_nets"] = result.route.routed
        doc["failed_nets"] = result.route.failed
    if spec.flow == "preimpl":
        database = result.extras.get("database")
        if database is not None:
            doc["db_checkpoints"] = len(database)
    drc_reports = result.extras.get("drc")
    if drc_reports:
        doc["drc_violations"] = sum(len(r.violations) for r in drc_reports)
    return doc


def _run_eco(spec: JobSpec, flow, result, database) -> dict:
    """Apply the spec's post-route ECO to the finished build.

    Reuses the run's routing graph and delay model; the variant
    component is re-implemented out of context at ``eco.swap_seed``.
    With ``verify`` the edit is replayed through the full re-route/
    re-time oracle and any divergence fails the job — the farm never
    serves an unverified incremental result when asked to prove it.
    """
    from ..eco import (
        DesignDelta, EcoEngine, LayerReplace, eco_reference, matches_reference, run_cts,
    )
    from ..netlist.codec import decode_design, encode_design
    from ..rapidwright import ComponentDatabase

    eco_spec = spec.eco or {}
    device = spec.device()
    top = result.design
    doc: dict = {}

    if eco_spec.get("cts"):
        trees = run_cts(top, device, delays=flow.delays)
        doc["cts"] = {
            "buffers": sum(t.n_buffers for t in trees),
            "skew_ps": round(max(t.skew_ps for t in trees), 3),
            "insertion_ps": round(max(t.insertion_ps for t in trees), 3),
        }

    comp = spec.resolve_eco_layer()
    swap_seed = eco_spec.get("swap_seed", spec.seed + 1)
    variant_db = ComponentDatabase(device)
    variant_db.build(
        [comp], rom_weights=not spec.stream_weights,
        effort=spec.effort, seed=swap_seed,
    )
    delta = DesignDelta(
        f"swap:{comp.name}@seed{swap_seed}",
        (LayerReplace(comp.name, variant_db.get(comp.signature)),),
    )

    verify = bool(eco_spec.get("verify"))
    # Pre-edit snapshot for the oracle replay: one binary image instead
    # of a dict-of-dicts round trip (same bit-identical copy, cheaper).
    pre_blob = encode_design(top) if verify else None
    drc_mode = spec.drc if spec.drc != "off" else "warn"
    engine = EcoEngine(
        top, device, graph=flow.graph, delays=flow.delays,
        drc=drc_mode, database=database,
    )
    eco = engine.apply(delta)
    doc.update(
        delta=delta.name,
        ripped=len(eco.ripped),
        rerouted=eco.route.routed,
        fmax_before_mhz=round(eco.before.fmax_mhz, 3),
        fmax_after_mhz=round(eco.after.fmax_mhz, 3),
        drc_violations=len(eco.drc.violations) if eco.drc is not None else None,
    )
    if verify:
        ref = eco_reference(
            decode_design(pre_blob), delta, device, graph=flow.graph,
            delays=flow.delays, drc=drc_mode, database=database,
        )
        identical = matches_reference(top, eco, ref)
        doc["oracle"] = "bit-identical" if identical else "mismatch"
        if not identical:
            raise RuntimeError(
                f"eco verification failed: incremental result for "
                f"{delta.name} diverges from the full-recompile oracle"
            )
    return doc


def _execute(spec: JobSpec, cache) -> dict:
    """Run the flow the spec asks for; returns the result document."""
    device = spec.device()
    dfg = spec.dfg()
    rom_weights = not spec.stream_weights
    started = time.perf_counter()
    if spec.flow == "baseline":
        result = VivadoFlow(device, effort=spec.effort, seed=spec.seed).run(
            dfg, granularity=spec.granularity, rom_weights=rom_weights
        )
        offline_s = 0.0
        flow = database = None
    else:
        flow = PreImplementedFlow(
            device, component_effort=spec.effort, seed=spec.seed, drc=spec.drc
        )
        database, offline = flow.build_database(
            dfg, granularity=spec.granularity, rom_weights=rom_weights, cache=cache
        )
        result = flow.run(
            dfg, granularity=spec.granularity, rom_weights=rom_weights,
            database=database, pipeline_target_mhz=spec.pipeline,
        )
        offline_s = offline.total
    eco_doc = None
    if spec.eco is not None and flow is not None:
        eco_doc = _run_eco(spec, flow, result, database)
    wall_s = time.perf_counter() - started
    doc = build_result_doc(spec, result, offline_s, wall_s)
    if eco_doc is not None:
        doc["eco"] = eco_doc
    return doc


def run_job(spec: JobSpec, *, cache=None, progress: ProgressLog | None = None) -> tuple[dict, str]:
    """Execute one job; returns ``(result_doc, cache_status)``.

    *cache* is the farm's shared build cache (or ``None`` for an
    uncached one-shot).  The whole-job result is looked up first — a hit
    skips the flow entirely — and stored back on a miss.  Raises
    whatever the flow raises; the scheduler journals the failure.
    """
    progress = progress if progress is not None else ProgressLog()
    result_key = f"serve-result-{spec.content_key()}"
    if cache is not None:
        cached = cache.get(result_key)
        if cached is not None:
            progress.append("stage", stage="result", span="serve.cache",
                            cache="hit", dur_s=0.0)
            return cached, "hit"
    tracer = Tracer(ProgressSink(progress))
    try:
        with tracer.activate():
            doc = _execute(spec, cache)
    finally:
        tracer.finish()
    if cache is not None:
        cache.put(result_key, doc)
    return doc, "miss"
