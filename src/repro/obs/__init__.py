"""Flow-wide observability: tracing spans, metrics, and pluggable sinks.

Zero-dependency subsystem measuring where a flow run spends its time and
what its algorithms are doing (`route.overuse` per PathFinder iteration,
annealer cost curves, component-library hits, engine queue latency).
See DESIGN.md ("Observability") for the architecture and
:mod:`repro.obs.span` for the event schema.

Quick start::

    from repro import obs
    from repro.obs import JsonlSink, Tracer

    tracer = Tracer(JsonlSink("out.jsonl"))
    with tracer.activate():
        flow.run(net)
    tracer.finish()

Instrumentation helpers (:func:`span`, :func:`incr`, :func:`sample`, …)
are free when no tracer is active, so library code calls them
unconditionally.
"""

from .collect import capture, merge
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .report import canonical_tree_blob, load_events, span_tree, summarize
from .sinks import ChromeTraceSink, InMemorySink, JsonlSink, NullSink, Sink
from .span import (
    Tracer,
    current_tracer,
    incr,
    observe,
    sample,
    set_gauge,
    span,
)

__all__ = [
    "ChromeTraceSink",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "NullSink",
    "Sink",
    "Tracer",
    "canonical_tree_blob",
    "capture",
    "current_tracer",
    "incr",
    "load_events",
    "merge",
    "observe",
    "sample",
    "set_gauge",
    "span",
    "span_tree",
    "summarize",
]
