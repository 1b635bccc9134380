"""Job execution: one submission → one traced, content-addressed flow run.

:func:`run_job` is what a scheduler worker actually calls.  It runs the
same flow definition as every other front end — :func:`repro.spec.
compile_spec` on the submitted spec, then the spec's ECO through
:func:`repro.eco.run_eco` — rather than wiring a flow of its own:

* the offline phase answers what the farm's component library holds and
  files what it builds there — so jobs share component builds (two
  tenants building VGG pay for its conv layers once);
* the whole run executes under an obs tracer whose
  :class:`~repro.serve.progress.ProgressSink` streams per-stage events
  into the job's :class:`~repro.serve.progress.ProgressLog`;
* the finished *result document* (a JSON summary: Fmax, compile time,
  per-stage breakdown, utilization, power) is filed under the spec's
  content key, so resubmitting an identical spec is answered in
  milliseconds without touching the flow at all.
"""

from __future__ import annotations

import time

from ..obs.span import Tracer
from ..spec import JobSpec, compile_spec
from .progress import ProgressLog, ProgressSink

__all__ = ["run_job", "build_result_doc"]

#: Bump to invalidate stored serve *results*: a stored document of another
#: schema is a miss (the component library has its own engine-level salt).
#: 3: with an ``eco``, ``drc`` gates the edit only (the build runs ungated).
RESULT_SCHEMA = 3


def build_result_doc(spec: JobSpec, result, wall_s: float) -> dict:
    """JSON-safe result summary of one :func:`compile_spec` run."""
    design = result.design
    usage = design.resource_usage()
    device = result.extras["flow"].device
    doc = {
        "schema": RESULT_SCHEMA,
        "network": spec.network_name,
        "part": spec.part,
        "flow": spec.flow,
        "granularity": spec.granularity,
        "seed": spec.seed,
        "fmax_mhz": round(result.fmax_mhz, 3),
        "runtime_s": round(result.runtime_s, 6),
        "offline_s": round(result.extras.get("offline_s", 0.0), 6),
        "wall_s": round(wall_s, 6),
        "stages": {k: round(v, 6) for k, v in result.stages.items()},
        "cells": design.n_cells,
        "nets": design.n_nets,
        "utilization": {k: round(v, 6) for k, v in result.utilization(device).items()},
        "resources": {k: int(v) for k, v in sorted(usage.items())},
        "power_w": round(result.power.total_w, 6),
    }
    if result.route is not None:
        doc["routed_nets"] = result.route.routed
        doc["failed_nets"] = result.route.failed
    database = result.extras.get("database")
    if database is not None:
        doc["db_checkpoints"] = len(database)
    drc_reports = result.extras.get("drc")
    if drc_reports:
        doc["drc_violations"] = sum(len(r.violations) for r in drc_reports)
    return doc


def _eco_doc(spec: JobSpec, result) -> dict:
    """Apply the spec's post-route ECO to the finished build.

    With ``verify`` any divergence from the full re-route/re-time oracle
    fails the job — the farm never serves an unverified incremental
    result when asked to prove it.
    """
    from ..eco import run_eco

    trees, eco, identical = run_eco(result, spec)
    if identical is False:
        raise RuntimeError(f"eco verification failed: incremental result for {eco.delta.name} "
                           "diverges from the full-recompile oracle")
    doc: dict = {}
    if spec.eco.get("cts"):
        doc["cts"] = {
            "buffers": sum(t.n_buffers for t in trees),
            "skew_ps": round(max(t.skew_ps for t in trees), 3),
            "insertion_ps": round(max(t.insertion_ps for t in trees), 3),
        }
    doc.update(
        delta=eco.delta.name,
        ripped=len(eco.ripped),
        rerouted=eco.route.routed,
        fmax_before_mhz=round(eco.before.fmax_mhz, 3),
        fmax_after_mhz=round(eco.after.fmax_mhz, 3),
        drc_violations=len(eco.drc.violations) if eco.drc is not None else None,
    )
    if identical:
        doc["oracle"] = "bit-identical"
    return doc


def _execute(spec: JobSpec, library) -> dict:
    """Run the flow the spec asks for; returns the result document."""
    started = time.perf_counter()
    result = compile_spec(spec, library=library)
    eco_doc = _eco_doc(spec, result) if spec.eco is not None else None
    doc = build_result_doc(spec, result, time.perf_counter() - started)
    if eco_doc is not None:
        doc["eco"] = eco_doc
    return doc


def run_job(spec: JobSpec, *, store=None, progress: ProgressLog | None = None) -> tuple[dict, str]:
    """Execute one job; returns ``(result_doc, cache_status)``.

    *store* is the farm's :class:`~repro.serve.store.JobStore` (or
    ``None`` for a one-shot run that reads and files nothing).  A result
    document it holds under the spec's content key, of the current
    :data:`RESULT_SCHEMA`, is a hit that skips the flow entirely;
    otherwise the flow runs on the store's component library, and the
    caller files the document (:meth:`~repro.serve.store.JobStore.
    mark_done`).  Raises whatever the flow raises; the scheduler
    journals the failure.
    """
    progress = progress if progress is not None else ProgressLog()
    if store is not None:
        stored = store.load_result(spec.content_key())
        if isinstance(stored, dict) and stored.get("schema") == RESULT_SCHEMA:
            progress.append("stage", stage="result", span="serve.cache",
                            cache="hit", dur_s=0.0)
            return stored, "hit"
    tracer = Tracer(ProgressSink(progress))
    try:
        with tracer.activate():
            doc = _execute(spec, None if store is None else store.library)
    finally:
        tracer.finish()
    return doc, "miss"
