"""Cached parallel map over independent tasks.

:meth:`Engine.run` takes a list of :class:`TaskSpec`:

* tasks whose ``cache_key`` is present in the build cache are answered
  without executing;
* with ``jobs=1`` the remaining tasks run serially, in-process, in list
  order;
* with ``jobs>1`` they run on a forked ``ProcessPoolExecutor``; anything
  that cannot be pooled (unpicklable callables, a broken pool, workers
  that cannot start) falls back to in-process execution;
* ``jobs=None`` picks one worker per usable core, capped at the number of
  tasks left to run, and runs serially when the process has other live
  threads.

Tasks must be pure functions of their inputs for the parallel and serial
schedules to be equivalent — the engine shares no mutable state between
tasks, and the flow's seeded stages guarantee *value* determinism on top.
A failed task is not retried: a pure, seeded task fails the same way
twice, and a dead worker is handled by the serial fallback.

Every task leaves a telemetry record (queue time, run time, worker id,
cache status); the report's ``run_s`` sums their run times.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs import collect as _collect
from ..obs.span import current_tracer, incr, observe, span
from .cache import BuildCache

__all__ = ["Engine", "EngineReport", "TaskError", "TaskResult", "TaskSpec"]

_MISS = object()


@dataclass
class TaskSpec:
    """One independent unit of work.

    ``fn`` must be picklable (module-level) for pooled execution; the
    engine falls back to in-process execution when it is not.
    ``cache_key`` opts the task into the content-addressed build cache.
    """

    id: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    stage: str = "task"
    cache_key: str | None = None


class TaskError(RuntimeError):
    """A task raised."""

    def __init__(self, task_id: str, message: str, cause: BaseException | None = None):
        super().__init__(f"task {task_id!r}: {message}")
        self.task_id = task_id
        self.cause = cause


@dataclass
class TaskResult:
    """Telemetry for one executed (or cache-answered) task."""

    task_id: str
    stage: str
    worker: str          # "cache", "serial", or "pid:<n>"
    cache: str           # "hit" | "miss" | "off"
    queue_s: float
    run_s: float


@dataclass
class EngineReport:
    """Results plus per-task telemetry of one :meth:`Engine.run`."""

    jobs: int
    wall_s: float
    results: dict[str, object]
    tasks: list[TaskResult] = field(default_factory=list)

    @property
    def hit_count(self) -> int:
        return sum(1 for t in self.tasks if t.cache == "hit")

    @property
    def miss_count(self) -> int:
        return sum(1 for t in self.tasks if t.cache == "miss")

    @property
    def run_s(self) -> float:
        """Summed *task* run times (CPU-equivalent), so the accounting is
        identical whatever ``jobs`` was; the concurrent wall clock is
        :attr:`wall_s`."""
        return sum(t.run_s for t in self.tasks)

    def telemetry(self) -> str:
        """Human-readable per-task table (queue/run/worker/cache)."""
        lines = [f"{'task':<24s} {'stage':<20s} {'worker':>10s} {'cache':>5s} "
                 f"{'queue s':>8s} {'run s':>8s}"]
        for t in self.tasks:
            lines.append(
                f"{t.task_id:<24s} {t.stage:<20s} {t.worker:>10s} {t.cache:>5s} "
                f"{t.queue_s:8.3f} {t.run_s:8.3f}"
            )
        return "\n".join(lines)


def _invoke(fn, args, kwargs, capture_trace=False):
    """Worker-side wrapper: measure run time and report the worker pid.

    With *capture_trace* the call runs under a fresh in-process tracer
    and the captured events ride home with the result, to be merged into
    the parent trace (:mod:`repro.obs.collect`).
    """
    start = time.perf_counter()
    if capture_trace:
        value, events = _collect.capture(fn, args, kwargs)
    else:
        value, events = fn(*args, **kwargs), None
    return value, os.getpid(), time.perf_counter() - start, events


def _looks_unpicklable(exc: BaseException) -> bool:
    return isinstance(exc, pickle.PicklingError) or "pickle" in str(exc).lower()


class Engine:
    """Parallel map over independent tasks with a content-addressed cache.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (the default) executes in-process.
        ``None`` resolves at :meth:`run` to one worker per usable core,
        at most one per pending task — and to ``1`` when the process has
        another live thread, because forking a threaded process can
        deadlock the child.  :attr:`EngineReport.jobs` reports the
        resolved count.
    cache:
        Optional :class:`BuildCache` consulted before running any task
        with a ``cache_key`` and populated after each miss.
    """

    def __init__(self, jobs: int | None = 1, *, cache: BuildCache | None = None) -> None:
        self.jobs = None if jobs is None else max(1, int(jobs))
        self.cache = cache

    def run(self, tasks: list[TaskSpec]) -> EngineReport:
        """Run every task; a duplicate task id raises :class:`ValueError`."""
        start = time.perf_counter()
        results: dict[str, object] = {}
        telemetry: list[TaskResult] = []

        tracer = current_tracer()
        with span("engine.run", tasks=len(tasks)):
            seen: set[str] = set()
            pending: list[TaskSpec] = []
            for spec in tasks:
                if spec.id in seen:
                    raise ValueError(f"duplicate task id {spec.id!r}")
                seen.add(spec.id)
                if self.cache is not None and spec.cache_key is not None:
                    value = self.cache.get(spec.cache_key, _MISS)
                    if value is not _MISS:
                        results[spec.id] = value
                        telemetry.append(
                            TaskResult(spec.id, spec.stage, "cache", "hit", 0.0, 0.0)
                        )
                        incr("cache.hit")
                        if tracer is not None:
                            tracer.emit_span(
                                "engine.task",
                                t0=time.perf_counter(),
                                dur=0.0,
                                attrs={"task": spec.id, "stage": spec.stage, "cache": "hit"},
                            )
                        continue
                pending.append(spec)

            jobs = self._resolve_jobs(len(pending))
            if pending:
                if jobs == 1:
                    self._run_serial(pending, results, telemetry)
                else:
                    self._run_pooled(pending, results, telemetry, jobs)

        return EngineReport(
            jobs=jobs,
            wall_s=time.perf_counter() - start,
            results=results,
            tasks=telemetry,
        )

    # -- helpers -----------------------------------------------------------

    def _resolve_jobs(self, pending: int) -> int:
        if self.jobs is not None:
            return self.jobs
        if threading.active_count() > 1:
            return 1
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            cores = os.cpu_count() or 1
        return max(1, min(cores, pending))

    def _cache_status(self, spec: TaskSpec) -> str:
        return "miss" if (self.cache is not None and spec.cache_key is not None) else "off"

    def _finish(self, spec: TaskSpec, value: object, status: str,
                results: dict[str, object], telemetry: list[TaskResult],
                worker: str, queue_s: float, run_s: float) -> None:
        if status == "miss":
            incr("cache.miss")
            self.cache.put(spec.cache_key, value)
        results[spec.id] = value
        telemetry.append(TaskResult(spec.id, spec.stage, worker, status, queue_s, run_s))

    # -- serial ------------------------------------------------------------

    def _run_serial(
        self,
        pending: list[TaskSpec],
        results: dict[str, object],
        telemetry: list[TaskResult],
    ) -> None:
        for spec in pending:
            status = self._cache_status(spec)
            start = time.perf_counter()
            try:
                with span("engine.task", task=spec.id, stage=spec.stage, cache=status):
                    value = spec.fn(*spec.args, **spec.kwargs)
            except Exception as exc:
                raise TaskError(spec.id, f"failed: {exc}", cause=exc) from exc
            self._finish(spec, value, status, results, telemetry,
                         "serial", 0.0, time.perf_counter() - start)

    # -- pooled ------------------------------------------------------------

    def _run_pooled(
        self,
        pending: list[TaskSpec],
        results: dict[str, object],
        telemetry: list[TaskResult],
        jobs: int,
    ) -> None:
        try:
            try:
                # fork keeps workers warm (imports inherited) and preserves
                # the parent's hash seed; platforms without it use their default.
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = multiprocessing.get_context()
            pool = ProcessPoolExecutor(jobs, ctx)
        except Exception:
            # No usable pool on this platform/configuration: degrade to serial.
            self._run_serial(pending, results, telemetry)
            return

        tracer = current_tracer()
        try:
            submitted = {}
            for spec in pending:
                try:
                    future = pool.submit(
                        _invoke, spec.fn, spec.args, spec.kwargs, tracer is not None
                    )
                except OSError as exc:
                    # fork workers start inside the first submit(); EAGAIN or
                    # ENOMEM there means there is no pool: stop any worker
                    # that did start and take the serial fallback below.
                    for process in (pool._processes or {}).values():
                        process.terminate()
                    raise BrokenProcessPool(f"workers could not start: {exc}") from exc
                submitted[future] = (spec, time.perf_counter())
            for future in as_completed(submitted):
                spec, submitted_at = submitted[future]
                try:
                    value, pid, run_s, events = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    if not _looks_unpicklable(exc):
                        raise TaskError(spec.id, f"failed: {exc}", cause=exc) from exc
                    self._run_serial([spec], results, telemetry)
                    continue
                now = time.perf_counter()
                status = self._cache_status(spec)
                queue_s = max(0.0, now - submitted_at - run_s)
                observe("engine.queue_ms", queue_s * 1e3)
                if tracer is not None:
                    # Synthetic task span timed by the parent; the worker's own
                    # spans re-parent under it.
                    span_id = tracer.emit_span(
                        "engine.task", t0=now - run_s, dur=run_s,
                        attrs={"task": spec.id, "stage": spec.stage, "cache": status},
                    )
                    if events:
                        _collect.merge(tracer, events, parent_id=span_id)
                self._finish(spec, value, status, results, telemetry,
                             f"pid:{pid}", queue_s, run_s)
        except BrokenProcessPool:
            # The pool died under us (worker OOM, hard crash) or never
            # started: run whatever is left in-process so the build still
            # completes.
            pool.shutdown(wait=False, cancel_futures=True)
            self._run_serial([s for s in pending if s.id not in results], results, telemetry)
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)
