"""Streamed job progress: the span → progress-event bridge.

Each running job is traced with the ordinary :mod:`repro.obs` tracer;
a :class:`ProgressSink` attached to that tracer translates the flow's
finished spans into coarse, user-facing *progress events* — one per
compile stage (synth, place, route, sta, drc, ...) — and appends them to
the job's :class:`ProgressLog`.  The long-poll ``/v1/jobs/<id>/events``
endpoint reads the log with a cursor, so clients stream progress without
the server holding any per-client state.

Because spans are emitted on *exit* and jobs execute their stages
serially, the event order is a deterministic function of the flow — the
same property :func:`repro.obs.report.canonical_tree_blob` pins down for
whole traces, checked by the serve test suite against that canonical
tree.
"""

from __future__ import annotations

import threading
import time

from ..obs.sinks import Sink

__all__ = ["ProgressLog", "ProgressSink", "STAGE_MAP", "stage_of"]

#: Span name → progress stage label.  Spans not listed emit no progress
#: event — the per-iteration router/annealer spans would flood the stream.
STAGE_MAP = {
    "engine.task": "synth",            # one OOC component pre-implementation
    "synth": "synth",                  # baseline flow network synthesis
    "opt_design": "opt",
    "place_design": "place",
    "rw:component_extraction": "extract",
    "rw:component_matching": "match",
    "rw:component_placement": "place",
    "rw:composition": "stitch",
    "vivado:inter_route": "route",
    "route_design": "route",
    "vivado:reroute": "route",
    "phys_opt:pipeline": "pipeline",
    "timing": "sta",
    "power": "power",
    "drc.run": "drc",
    "flow.run": "flow",
}


def stage_of(span_name: str) -> str | None:
    """Progress stage for *span_name*, or ``None`` if it is not streamed."""
    return STAGE_MAP.get(span_name)


class ProgressLog:
    """Append-only, sequence-numbered event log for one job.

    Thread-safe: workers append, HTTP handlers read.  ``wait`` blocks
    until events past the cursor exist (or the log is closed, or the
    timeout lapses) — the primitive under the long-poll endpoint.
    """

    def __init__(self) -> None:
        self._events: list[dict] = []
        self._cond = threading.Condition()
        self._closed = False

    def append(self, kind: str, **fields) -> dict:
        with self._cond:
            event = {"seq": len(self._events), "t": time.time(), "kind": kind}
            event.update(fields)
            self._events.append(event)
            self._cond.notify_all()
            return event

    def close(self) -> None:
        """Mark the job finished: pending and future waits return at once."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def since(self, after: int = -1) -> list[dict]:
        """Events with ``seq > after`` (non-blocking)."""
        with self._cond:
            return [e for e in self._events if e["seq"] > after]

    def wait(self, after: int = -1, timeout: float = 30.0) -> list[dict]:
        """Block until events past *after* exist; empty list on timeout.

        Returns immediately once the log is closed, so clients draining a
        finished job never hang.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                pending = [e for e in self._events if e["seq"] > after]
                if pending or self._closed:
                    return pending
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(remaining)


class ProgressSink(Sink):
    """Obs sink that feeds a :class:`ProgressLog` from finished spans.

    Only spans with a :data:`STAGE_MAP` entry become events; span attrs
    ride along (minus volatile ones) so a synth event says *which*
    component finished.
    """

    def __init__(self, log: ProgressLog) -> None:
        self.log = log

    def emit(self, event: dict) -> None:
        if event.get("ph") != "span":
            return
        stage = stage_of(event.get("name", ""))
        if stage is None:
            return
        attrs = {
            k: v for k, v in (event.get("attrs") or {}).items()
            if k in ("task", "stage", "model", "granularity",
                     "flow", "fmax_mhz", "gate", "components", "tasks")
        }
        # The engine's own "stage" attr (e.g. "build:conv") must not shadow
        # the progress event's stage label.
        if "stage" in attrs:
            attrs["task_stage"] = attrs.pop("stage")
        self.log.append(
            "stage", stage=stage, span=event["name"],
            dur_s=round(float(event.get("dur", 0.0)), 6), **attrs,
        )
