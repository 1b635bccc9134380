"""Metrics registry: counters, gauges, and summary histograms.

A :class:`MetricsRegistry` lives on a :class:`~repro.obs.span.Tracer` and
aggregates flow-level quantities — ``route.overuse`` per iteration,
``place.cost`` samples, ``library.hit`` counts, ``engine.queue_ms``
latencies — without any per-event I/O.  At :meth:`Tracer.finish` the
registry renders one summary event per metric (:meth:`MetricsRegistry.
events`, sorted by name so traces are reproducible) and worker-process
registries merge losslessly into the parent's
(:meth:`MetricsRegistry.merge_event`).

Everything here is stdlib-only and thread-safe.
"""

from __future__ import annotations

import math
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, value: float = 1.0) -> None:
        self.value += value

    def event(self) -> dict:
        return {"ph": "metric", "kind": "counter", "name": self.name,
                "value": self.value}


class Gauge:
    """Last-written value (e.g. ``engine.jobs``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def event(self) -> dict:
        return {"ph": "metric", "kind": "gauge", "name": self.name,
                "value": self.value}


class Histogram:
    """Streaming summary (count/total/min/max) of observed values.

    A full bucket histogram is overkill for flow telemetry; the summary
    merges exactly across processes, which buckets would too but at a
    schema cost nothing downstream needs yet.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def event(self) -> dict:
        return {"ph": "metric", "kind": "histogram", "name": self.name,
                "count": self.count, "total": self.total,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0}


class MetricsRegistry:
    """Name-keyed store of metrics, safe to use from multiple threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        return self._metrics.get(name)

    def events(self) -> list[dict]:
        """One summary event per metric, sorted by name (deterministic)."""
        with self._lock:
            return [self._metrics[name].event() for name in sorted(self._metrics)]

    def merge_event(self, event: dict) -> None:
        """Fold one summary *event* (e.g. from a worker process) in."""
        kind = event.get("kind")
        name = event["name"]
        if kind == "counter":
            self.counter(name).inc(event["value"])
        elif kind == "gauge":
            self.gauge(name).set(event["value"])
        elif kind == "histogram":
            hist = self.histogram(name)
            count = int(event.get("count", 0))
            if count:
                hist.count += count
                hist.total += event.get("total", 0.0)
                hist.min = min(hist.min, event.get("min", math.inf))
                hist.max = max(hist.max, event.get("max", -math.inf))
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
