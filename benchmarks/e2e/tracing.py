"""Harness-side span recording for the end-to-end benchmark.

Spans are recorded from the benchmark's own files, around the calls
into each layer: :func:`install` rebinds every ``repro.*`` module
attribute (or class attribute, for methods) that *is* one of the
:data:`TARGETS` to a wrapper, and :func:`uninstall` puts the originals
back.  Nothing under ``src/`` knows it is being traced, and the
untraced ops run the unwrapped functions.

A span is ``(name, start, end, parent, op_id)``; spans nest strictly
(one thread), so a span's *self time* is its duration minus the
durations of its direct children.  Counts are read from the wrapped
calls' public arguments and results at the same boundaries.
"""

from __future__ import annotations

import gc
import importlib
import sys
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Callable

__all__ = ["COUNT_NAMES", "Span", "Target", "TARGETS", "Tracer", "install", "uninstall",
           "self_times"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for an op's root
    op_id: int


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the direct children's durations."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """In-memory span and count recorder; inert unless an op is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.gc_pause_s: dict[int, float] = {}
        self.gc_gen2: dict[int, int] = {}
        self._stack: list[int] = []
        self._op = -1
        self._gc_start = 0.0

    @property
    def active(self) -> bool:
        return self._op >= 0

    def begin_op(self, op_id: int, root: str = "harness.op") -> None:
        self._op = op_id
        self.counts[op_id] = {}
        self.gc_pause_s[op_id] = 0.0
        self.gc_gen2[op_id] = 0
        gc.callbacks.append(self._on_gc)
        self.enter(root)

    def end_op(self) -> None:
        while self._stack:  # an op that raised leaves spans open
            self.exit()
        gc.callbacks.remove(self._on_gc)
        self._op = -1

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._op))

    def exit(self) -> None:
        self.spans[self._stack.pop()].end = perf_counter()

    def add_counts(self, values: dict[str, float]) -> None:
        bucket = self.counts[self._op]
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause_s[self._op] += perf_counter() - self._gc_start
            if info["generation"] == 2:
                self.gc_gen2[self._op] += 1

    # -- aggregation --------------------------------------------------------

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """``{op_id: {span name: {"self_s": ..., "calls": ...}}}``."""
        out: dict[int, dict[str, dict[str, float]]] = {}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span.op_id, {}).setdefault(
                span.name, {"self_s": 0.0, "calls": 0}
            )
            row["self_s"] += self_s
            row["calls"] += 1
        return out

    def to_json(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.op_id] for s in self.spans],
            "counts": {str(k): v for k, v in self.counts.items()},
            "gc_pause_s": {str(k): v for k, v in self.gc_pause_s.items()},
            "gc_gen2": {str(k): v for k, v in self.gc_gen2.items()},
        }

    def absorb(self, doc: dict, op_id: int, parent: int) -> list[Span]:
        """Splice a one-op trace recorded by another process under span
        *parent* of op *op_id*; returns the spliced spans."""
        base = len(self.spans)
        for name, start, end, up, _op in doc["spans"]:
            self.spans.append(Span(name, start, end, up + base if up >= 0 else parent, op_id))
        (self.counts[op_id],) = doc["counts"].values()
        (self.gc_pause_s[op_id],) = doc["gc_pause_s"].values()
        (self.gc_gen2[op_id],) = doc["gc_gen2"].values()
        return self.spans[base:]


# -- count extractors: (before-token, call args, call result) -> {metric: value}


def _group_counts(_before, _args, result):
    return {
        "cnn.components": len(result),
        "cnn.unique_signatures": len({c.signature for c in result}),
    }


def _synth_counts(_before, _args, result):
    return {"synth.cells": len(result.top.cells), "synth.nets": len(result.top.nets)}


def _opt_counts(_before, _args, result):
    return {"vivado.opt.removed_nets": result.removed_nets}


def _place_counts(_before, _args, result):
    out = {"place.hpwl": result.hpwl}
    if result.anneal is not None:
        out["place.anneal.moves"] = result.anneal.moves
        out["place.anneal.accepted"] = result.anneal.accepted
    return out


def _route_counts(_before, _args, result):
    return {
        "route.connections": result.routed,
        "route.iterations": result.iterations,
        "route.wirelength": result.wirelength,
        "route.overused_nodes": result.overused_nodes,
        "route.failed": result.failed,
    }


def _compose_counts(_before, _args, result):
    return {"rapidwright.stitch.pruned_nets": len(result.pruned_nets)}


def _encode_counts(_before, args, result):
    design = args[0]
    return {
        "netlist.encode.bytes": len(result),
        "netlist.cells": len(design.cells),
        "netlist.nets": len(design.nets),
    }


def _pipeline_counts(_before, _args, result):
    return {"timing.pipeline.inserted": result.inserted}


def _sta_before(args):
    stats = args[0].stats  # cumulative over the session: report this call's growth
    return stats.repropagated_cells, stats.memo_hits, stats.memo_misses


def _sta_counts(before, args, result):
    now = _sta_before(args)
    return {
        "timing.n_paths": result.n_paths,
        "timing.sta.repropagated_cells": now[0] - before[0],
        "timing.sta.memo_hits": now[1] - before[1],
        "timing.sta.memo_misses": now[2] - before[2],
    }


def _eco_counts(_before, _args, result):
    return {"eco.ripped_nets": len(result.ripped), "eco.rerouted": result.route.routed}


#: Every name a count extractor above can emit (a layer the workload never
#: calls reports 0 for its counts).
COUNT_NAMES = (
    "cnn.components", "cnn.unique_signatures", "synth.cells", "synth.nets",
    "vivado.opt.removed_nets", "place.hpwl", "place.anneal.moves",
    "place.anneal.accepted", "route.connections", "route.iterations",
    "route.wirelength", "route.overused_nodes", "route.failed",
    "rapidwright.stitch.pruned_nets", "netlist.encode.bytes", "netlist.cells",
    "netlist.nets", "timing.pipeline.inserted", "timing.n_paths",
    "timing.sta.repropagated_cells", "timing.sta.memo_hits", "timing.sta.memo_misses",
    "eco.ripped_nets", "eco.rerouted",
)


@dataclass(frozen=True)
class Target:
    span: str  # span name; the per-layer metrics are <span>.self_s / .calls
    module: str
    attr: str  # "function" or "Class.method"
    counts: Callable | None = None
    before: Callable | None = None  # its result is handed to ``counts``


#: Each layer's public entry point (ISSUE 13's layer table).
TARGETS = (
    Target("cli.main", "repro.cli", "main"),
    Target("fabric.Device.from_name", "repro.fabric.device", "Device.from_name"),
    Target("cnn.group_components", "repro.cnn.graph", "group_components", _group_counts),
    Target("synth.synthesize_network", "repro.synth.network", "synthesize_network",
           _synth_counts),
    Target("vivado.opt_design", "repro.vivado.opt", "opt_design", _opt_counts),
    Target("place.place_design", "repro.place.placer", "place_design", _place_counts),
    Target("route.Router.route", "repro.route.pathfinder", "Router.route", _route_counts),
    Target("rapidwright.build_database", "repro.rapidwright.flow",
           "PreImplementedFlow.build_database"),
    Target("rapidwright.preimplement", "repro.rapidwright.ooc", "preimplement"),
    Target("rapidwright.database.fetch", "repro.rapidwright.database",
           "ComponentDatabase.fetch"),
    Target("rapidwright.ComponentPlacer.place", "repro.rapidwright.placer",
           "ComponentPlacer.place"),
    Target("rapidwright.compose", "repro.rapidwright.stitcher", "compose", _compose_counts),
    Target("rapidwright.flow.run", "repro.rapidwright.flow", "PreImplementedFlow.run"),
    Target("netlist.encode_design", "repro.netlist.codec", "encode_design", _encode_counts),
    Target("netlist.design_from_dict", "repro.netlist.checkpoint", "design_from_dict"),
    Target("timing.pipeline_to_target", "repro.timing.pipeline", "pipeline_to_target",
           _pipeline_counts),
    Target("timing.IncrementalSta.analyze", "repro.timing.incremental",
           "IncrementalSta.analyze", _sta_counts, _sta_before),
    Target("power.estimate_power", "repro.power.model", "estimate_power"),
    Target("eco.EcoEngine.apply", "repro.eco.engine", "EcoEngine.apply", _eco_counts),
    Target("drc.run_drc", "repro.drc.engine", "run_drc"),
)


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    @wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        before = target.before(args) if target.before is not None else None
        tracer.enter(target.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if target.counts is not None:
            tracer.add_counts(target.counts(before, args, result))
        return result

    return traced


def install(tracer: Tracer, targets=TARGETS) -> list[tuple[object, str, object]]:
    """Rebind every target to a recording wrapper.

    Returns ``(owner, attribute, original)`` records for :func:`uninstall`.
    Call it once the modules the workload uses are imported: a module
    imported later would copy a wrapper that no record restores (the
    wrapper is inert outside an op, so that costs a call, not a span).
    """
    records: list[tuple[object, str, object]] = []
    for target in targets:
        module = importlib.import_module(target.module)
        cls_name, _, method = target.attr.rpartition(".")
        if cls_name:
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            if isinstance(original, classmethod):
                wrapper = classmethod(_wrap(tracer, target, original.__func__))
            else:
                wrapper = _wrap(tracer, target, original)
            records.append((cls, method, original))
            setattr(cls, method, wrapper)
            continue
        original = getattr(module, target.attr)
        wrapper = _wrap(tracer, target, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    records.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    return records


def uninstall(records: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(records):
        setattr(owner, attr, original)
