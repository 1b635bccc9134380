"""Dependency-aware task execution with a process worker pool.

The :class:`Engine` runs a :class:`~repro.engine.task.TaskGraph`:

* tasks whose ``cache_key`` is present in the build cache are answered
  without executing;
* with ``jobs=1`` the remaining tasks run serially, in-process, in
  deterministic topological order;
* with ``jobs>1`` independent tasks run concurrently on a
  ``ProcessPoolExecutor`` with per-task timeout and retry; anything that
  cannot be pooled (unpicklable callables, a broken pool, workers that
  cannot start) falls back gracefully to in-process execution;
* ``jobs=None`` picks one worker per usable core, capped at the number of
  tasks left to run, and runs serially when the process has other live
  threads.

Tasks must be pure functions of their inputs for the parallel and serial
schedules to be equivalent — the engine guarantees *scheduling*
determinism (stable ordering, no shared mutable state), and the flow's
seeded stages guarantee *value* determinism on top.

Every task leaves a telemetry record (queue time, run time, worker id,
cache status) and the report aggregates them into a
:class:`~repro._util.StageTimer` so engine time slots directly into the
productivity accounting the benchmarks already use.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from .._util import StageTimer
from ..obs import collect as _collect
from ..obs.span import current_tracer, incr, observe, span
from .cache import BuildCache
from .task import TaskGraph, TaskSpec, resolve_refs

__all__ = ["Engine", "EngineReport", "TaskError", "TaskResult"]

_MISS = object()


class TaskError(RuntimeError):
    """A task failed after exhausting its retry budget."""

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
    attempts: int


@dataclass
class EngineReport:
    """Results plus per-task telemetry of one :meth:`Engine.run`."""

    jobs: int
    wall_s: float
    results: dict[str, object]
    tasks: list[TaskResult] = field(default_factory=list)
    cache: BuildCache | None = None

    @property
    def hit_count(self) -> int:
        return sum(1 for t in self.tasks if t.cache == "hit")

    @property
    def miss_count(self) -> int:
        return sum(1 for t in self.tasks if t.cache == "miss")

    def timer(self) -> StageTimer:
        """Per-stage run time, :class:`StageTimer`-compatible.

        Stage totals are summed *task* run times (CPU-equivalent), so the
        accounting is identical whatever ``jobs`` was; the concurrent
        wall clock is :attr:`wall_s`.
        """
        timer = StageTimer()
        for task in self.tasks:
            timer.add(task.stage, task.run_s)
        return timer

    def telemetry(self) -> str:
        """Human-readable per-task table (queue/run/worker/cache)."""
        lines = [f"{'task':<24s} {'stage':<20s} {'worker':>10s} {'cache':>5s} "
                 f"{'queue s':>8s} {'run s':>8s} {'try':>3s}"]
        for t in self.tasks:
            lines.append(
                f"{t.task_id:<24s} {t.stage:<20s} {t.worker:>10s} {t.cache:>5s} "
                f"{t.queue_s:8.3f} {t.run_s:8.3f} {t.attempts:3d}"
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


@dataclass
class _Flight:
    """Bookkeeping for one in-flight pooled task."""

    spec: TaskSpec
    submitted_at: float
    deadline: float | None
    attempts: int


class Engine:
    """Parallel task-graph executor with a content-addressed cache.

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
    timeout_s / retries:
        Defaults for tasks that do not set their own.  Timeouts are
        enforced in pooled mode only (a timed-out attempt is resubmitted
        until the retry budget runs out; the stray worker call is
        abandoned, which is sound because tasks are pure).
    """

    def __init__(
        self,
        jobs: int | None = 1,
        *,
        cache: BuildCache | None = None,
        timeout_s: float | None = None,
        retries: int = 0,
        mp_context: str = "fork",
    ) -> None:
        self.jobs = None if jobs is None else max(1, int(jobs))
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.mp_context = mp_context

    # -- public ------------------------------------------------------------

    def run(self, graph: TaskGraph) -> EngineReport:
        start = time.perf_counter()
        order = graph.order()
        results: dict[str, object] = {}
        telemetry: list[TaskResult] = []

        tracer = current_tracer()
        with span("engine.run", tasks=len(order)):
            pending: list[TaskSpec] = []
            for tid in order:
                spec = graph[tid]
                if self.cache is not None and spec.cache_key is not None:
                    value = self.cache.get(spec.cache_key, _MISS)
                    if value is not _MISS:
                        results[tid] = value
                        telemetry.append(
                            TaskResult(tid, spec.stage, "cache", "hit", 0.0, 0.0, 0)
                        )
                        incr("cache.hit")
                        if tracer is not None:
                            tracer.emit_span(
                                "engine.task",
                                t0=time.perf_counter(),
                                dur=0.0,
                                attrs={"task": tid, "stage": spec.stage, "cache": "hit"},
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
            cache=self.cache,
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

    def _store(self, spec: TaskSpec, value: object) -> None:
        if self.cache is not None and spec.cache_key is not None:
            self.cache.put(spec.cache_key, value)

    def _retries_for(self, spec: TaskSpec) -> int:
        return self.retries if spec.retries is None else max(0, spec.retries)

    def _deadline_for(self, spec: TaskSpec) -> float | None:
        timeout = spec.timeout_s if spec.timeout_s is not None else self.timeout_s
        return None if timeout is None else time.perf_counter() + timeout

    # -- serial ------------------------------------------------------------

    def _run_serial(
        self,
        pending: list[TaskSpec],
        results: dict[str, object],
        telemetry: list[TaskResult],
    ) -> None:
        for spec in pending:
            args = resolve_refs(spec.args, results)
            kwargs = resolve_refs(spec.kwargs, results)
            attempts = 0
            budget = self._retries_for(spec)
            status = self._cache_status(spec)
            with span("engine.task", task=spec.id, stage=spec.stage, cache=status):
                while True:
                    attempts += 1
                    start = time.perf_counter()
                    try:
                        value = spec.fn(*args, **kwargs)
                        break
                    except Exception as exc:
                        if attempts > budget:
                            raise TaskError(
                                spec.id, f"failed after {attempts} attempts: {exc}",
                                cause=exc,
                            ) from exc
            run_s = time.perf_counter() - start
            if status == "miss":
                incr("cache.miss")
            results[spec.id] = value
            self._store(spec, value)
            telemetry.append(TaskResult(
                spec.id, spec.stage, "serial", status, 0.0, run_s, attempts
            ))

    # -- pooled ------------------------------------------------------------

    def _run_pooled(
        self,
        pending: list[TaskSpec],
        results: dict[str, object],
        telemetry: list[TaskResult],
        jobs: int,
    ) -> None:
        try:
            import multiprocessing

            try:
                # fork keeps workers warm (imports inherited) and preserves
                # the parent's hash seed; platforms without it use their default.
                ctx = multiprocessing.get_context(self.mp_context)
            except ValueError:
                ctx = multiprocessing.get_context()
            pool = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)
        except Exception:
            # No usable pool on this platform/configuration: degrade to serial.
            self._run_serial(pending, results, telemetry)
            return

        specs = {spec.id: spec for spec in pending}
        remaining = {
            spec.id: sum(1 for d in spec.deps if d not in results) for spec in pending
        }
        dependents: dict[str, list[str]] = {tid: [] for tid in specs}
        for spec in pending:
            for dep in spec.deps:
                if dep in specs:
                    dependents[dep].append(spec.id)
        ready = [tid for tid in specs if remaining[tid] == 0]
        attempts = {tid: 0 for tid in specs}
        inflight: dict[Future, _Flight] = {}
        done_count = 0

        tracer = current_tracer()

        def submit(tid: str) -> None:
            spec = specs[tid]
            args = resolve_refs(spec.args, results)
            kwargs = resolve_refs(spec.kwargs, results)
            attempts[tid] += 1
            try:
                future = pool.submit(
                    _invoke, spec.fn, args, kwargs, tracer is not None
                )
            except OSError as exc:
                # fork workers start inside the first submit(); EAGAIN or
                # ENOMEM there means there is no pool: stop any worker
                # that did start and take the serial fallback below.
                for process in (pool._processes or {}).values():
                    process.terminate()
                raise BrokenProcessPool(f"workers could not start: {exc}") from exc
            inflight[future] = _Flight(
                spec, time.perf_counter(), self._deadline_for(spec), attempts[tid]
            )

        def finish(spec: TaskSpec, value, worker: str, queue_s: float, run_s: float,
                   *, t0: float | None = None, events: list | None = None,
                   emit: bool = True) -> None:
            nonlocal done_count
            status = self._cache_status(spec)
            if status == "miss":
                incr("cache.miss")
            observe("engine.queue_ms", max(0.0, queue_s) * 1e3)
            if emit and tracer is not None:
                # Synthetic task span timed by the parent; the worker's own
                # spans re-parent under it.
                span_id = tracer.emit_span(
                    "engine.task",
                    t0=t0 if t0 is not None else time.perf_counter() - run_s,
                    dur=run_s,
                    attrs={"task": spec.id, "stage": spec.stage, "cache": status},
                )
                if events:
                    _collect.merge(tracer, events, parent_id=span_id)
            results[spec.id] = value
            self._store(spec, value)
            telemetry.append(TaskResult(
                spec.id, spec.stage, worker, status,
                max(0.0, queue_s), run_s, attempts[spec.id],
            ))
            done_count += 1
            for nxt in dependents[spec.id]:
                remaining[nxt] -= 1
                if remaining[nxt] == 0:
                    ready.append(nxt)

        def run_inline(spec: TaskSpec, queue_s: float) -> None:
            """In-process fallback for work the pool cannot take."""
            args = resolve_refs(spec.args, results)
            kwargs = resolve_refs(spec.kwargs, results)
            start = time.perf_counter()
            try:
                with span("engine.task", task=spec.id, stage=spec.stage,
                          cache=self._cache_status(spec)):
                    value = spec.fn(*args, **kwargs)
            except Exception as exc:
                raise TaskError(spec.id, f"failed in serial fallback: {exc}", cause=exc) from exc
            finish(spec, value, "serial", queue_s, time.perf_counter() - start,
                   emit=False)

        try:
            while done_count < len(specs):
                while ready:
                    submit(ready.pop(0))
                if not inflight:
                    raise TaskError(
                        next(iter(specs)), "scheduler stalled (unsatisfiable deps)"
                    )
                finished, _ = wait(
                    set(inflight), timeout=0.05, return_when=FIRST_COMPLETED
                )
                now = time.perf_counter()
                for future in finished:
                    flight = inflight.pop(future)
                    spec = flight.spec
                    try:
                        value, pid, run_s, events = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        if _looks_unpicklable(exc):
                            run_inline(spec, now - flight.submitted_at)
                        elif flight.attempts <= self._retries_for(spec):
                            submit(spec.id)
                        else:
                            raise TaskError(
                                spec.id,
                                f"failed after {flight.attempts} attempts: {exc}",
                                cause=exc,
                            ) from exc
                        continue
                    finish(spec, value, f"pid:{pid}",
                           now - flight.submitted_at - run_s, run_s,
                           t0=now - run_s, events=events)
                # Enforce per-task deadlines on whatever is still running.
                for future, flight in list(inflight.items()):
                    if flight.deadline is not None and now > flight.deadline:
                        future.cancel()
                        del inflight[future]
                        spec = flight.spec
                        if flight.attempts <= self._retries_for(spec):
                            submit(spec.id)
                        else:
                            raise TaskError(
                                spec.id,
                                f"timed out after {flight.attempts} attempts "
                                f"({spec.timeout_s or self.timeout_s}s each)",
                            )
        except BrokenProcessPool:
            # The pool died under us (worker OOM, hard crash) or never
            # started: run whatever is left in-process so the build still
            # completes.
            pool.shutdown(wait=False, cancel_futures=True)
            leftover = [specs[tid] for tid in specs if tid not in results]
            self._run_serial(leftover, results, telemetry)
        except BaseException:
            # Don't block the caller on abandoned workers (e.g. a timed-out
            # task still sleeping in a child) — detach and re-raise.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)
