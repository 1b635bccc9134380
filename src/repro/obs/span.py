"""Hierarchical tracing spans and the ambient tracer.

The flow instruments itself through four module-level helpers that are
no-ops (a ContextVar read and nothing else) until a tracer is activated:

``span(name, **attrs)``
    Context manager timing one unit of work.  Spans nest: a span opened
    while another is active becomes its child, across any call depth —
    ``PreImplementedFlow.run``'s stage spans automatically contain the
    router's per-iteration spans, which contain nothing but themselves.
``incr`` / ``set_gauge`` / ``observe`` / ``sample``
    Feed the active tracer's :class:`~repro.obs.metrics.MetricsRegistry`;
    ``sample`` additionally emits a timestamped point event (cost and
    congestion curves).

``stage(stages, name)`` is a ``span`` that also adds its wall time to a
flow's stage ledger, with or without a tracer.

Activation is explicit and scoped::

    tracer = Tracer(JsonlSink("out.jsonl"))
    with tracer.activate():
        flow.run(net)            # fully traced
    tracer.finish()              # metric summaries + sink close

Event schema (plain dicts, JSON-safe):

* span:   ``{"ph": "span", "name", "id", "parent", "t0", "dur", "pid",
  "attrs"}`` — ``id``/``parent`` are tracer-local ints, ``t0``/``dur``
  are ``perf_counter`` seconds.
* sample: ``{"ph": "sample", "name", "t", "value", "pid", "attrs"}``.
* metric: see :mod:`repro.obs.metrics`.

The tracer is thread-safe (locked id allocation and emission) and the
span stack is a :class:`contextvars.ContextVar`, so threads and asyncio
tasks each see their own nesting.  Cross-process traces are stitched by
:mod:`repro.obs.collect`.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar

from .. import sanitize
from .metrics import MetricsRegistry
from .sinks import InMemorySink, Sink

__all__ = [
    "Tracer",
    "current_tracer",
    "span",
    "stage",
    "incr",
    "set_gauge",
    "observe",
    "sample",
]

_current: ContextVar["Tracer | None"] = ContextVar("repro_obs_tracer", default=None)
_stack: ContextVar[tuple[int, ...]] = ContextVar("repro_obs_stack", default=())


def current_tracer() -> "Tracer | None":
    """The tracer activated in this context, or ``None``."""
    return _current.get()


def _clean(value):
    """Attribute values must be JSON-safe and deterministic to compare."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    return repr(value)


class Tracer:
    """Collects spans, samples, and metrics into a sink.

    Parameters
    ----------
    sink:
        Destination for events (default: a fresh :class:`InMemorySink`).
    """

    def __init__(self, sink: Sink | None = None) -> None:
        self.sink: Sink = sink if sink is not None else InMemorySink()
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._next_id = 1
        self._finished = False

    # -- event plumbing ----------------------------------------------------

    def new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def emit(self, event: dict) -> None:
        with self._lock:
            sanitize.note_write("obs.Tracer.sink", self._lock)
            self.sink.emit(event)

    def emit_span(
        self,
        name: str,
        *,
        t0: float,
        dur: float,
        attrs: dict | None = None,
        parent_id: int | None = None,
        span_id: int | None = None,
    ) -> int:
        """Record a finished span directly (synthetic spans, e.g. a pooled
        engine task timed by the parent process).  When *parent_id* is
        ``None`` the span parents under the context's active span."""
        if span_id is None:
            span_id = self.new_id()
        if parent_id is None:
            stack = _stack.get()
            parent_id = stack[-1] if stack else None
        self.emit({
            "ph": "span",
            "name": name,
            "id": span_id,
            "parent": parent_id,
            "t0": t0,
            "dur": dur,
            "pid": os.getpid(),
            "attrs": {k: _clean(v) for k, v in (attrs or {}).items()},
        })
        return span_id

    # -- public API --------------------------------------------------------

    def span(self, name: str, **attrs) -> "_SpanCtx":
        return _SpanCtx(self, name, attrs)

    @contextmanager
    def activate(self):
        """Make this tracer ambient for the ``with`` body."""
        token = _current.set(self)
        try:
            yield self
        finally:
            _current.reset(token)

    def finish(self) -> None:
        """Emit metric summary events and close the sink (idempotent)."""
        if self._finished:
            return
        self._finished = True
        for event in self.metrics.events():
            self.emit(event)
        self.sink.close()


class _SpanCtx:
    """Live span handle; ``set(**attrs)`` annotates it before exit."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "_t0", "_token")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_SpanCtx":
        self.span_id = self.tracer.new_id()
        self._token = _stack.set(_stack.get() + (self.span_id,))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        _stack.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = _stack.get()
        self.tracer.emit_span(
            self.name,
            t0=self._t0,
            dur=dur,
            attrs=self.attrs,
            parent_id=stack[-1] if stack else None,
            span_id=self.span_id,
        )
        return False


class _NoopSpan:
    """Returned by :func:`span` when no tracer is active — near-free."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NOOP = _NoopSpan()


def span(name: str, **attrs):
    """Time a unit of work under the ambient tracer (no-op without one)."""
    tracer = _current.get()
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)


@contextmanager
def stage(stages: dict[str, float], name: str):
    """:func:`span` *name*, also adding its wall time to ``stages[name]``
    (a flow's stage ledger, ``FlowResult.stages``), tracer or not."""
    start = time.perf_counter()
    with span(name):
        try:
            yield
        finally:
            stages[name] = stages.get(name, 0.0) + time.perf_counter() - start


def incr(name: str, value: float = 1.0) -> None:
    """Increment counter *name* on the ambient tracer."""
    tracer = _current.get()
    if tracer is not None:
        tracer.metrics.counter(name).inc(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge *name* on the ambient tracer."""
    tracer = _current.get()
    if tracer is not None:
        tracer.metrics.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Observe *value* into histogram *name* on the ambient tracer."""
    tracer = _current.get()
    if tracer is not None:
        tracer.metrics.histogram(name).observe(value)


def sample(name: str, value: float, **attrs) -> None:
    """Timestamped point sample: histogram observation + a sink event."""
    tracer = _current.get()
    if tracer is None:
        return
    tracer.metrics.histogram(name).observe(value)
    tracer.emit({
        "ph": "sample",
        "name": name,
        "t": time.perf_counter(),
        "value": float(value),
        "pid": os.getpid(),
        "attrs": {k: _clean(v) for k, v in attrs.items()},
    })
