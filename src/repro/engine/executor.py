"""Parallel map over independent tasks.

:meth:`Engine.run` takes a list of :class:`TaskSpec`:

* with ``jobs=1`` the tasks run serially, in-process, in list order;
* with ``jobs>1`` they run on a forked ``ProcessPoolExecutor``; anything
  that cannot be pooled (unpicklable callables, a broken pool, workers
  that cannot start) falls back to in-process execution;
* ``jobs=None`` picks one worker per usable core, capped at the number of
  tasks, and runs serially when the process has other live threads.

Tasks must be pure functions of their inputs for the parallel and serial
schedules to be equivalent — the engine shares no mutable state between
tasks, and the flow's seeded stages guarantee *value* determinism on top.
A failed task is not retried: a pure, seeded task fails the same way
twice, and a dead worker is handled by the serial fallback.

Every task leaves a telemetry record (queue time, run time, worker id);
the report's ``run_s`` sums their run times.  What is already built is
answered before a task is made (:meth:`~repro.rapidwright.database.
ComponentDatabase.build` reads its library first).
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
from ..obs.span import current_tracer, observe, span

__all__ = ["Engine", "EngineReport", "TaskError", "TaskResult", "TaskSpec"]


@dataclass
class TaskSpec:
    """One independent unit of work.

    ``fn`` must be picklable (module-level) for pooled execution; the
    engine falls back to in-process execution when it is not.
    """

    id: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    stage: str = "task"


class TaskError(RuntimeError):
    """A task raised."""

    def __init__(self, task_id: str, message: str, cause: BaseException | None = None):
        super().__init__(f"task {task_id!r}: {message}")
        self.task_id = task_id
        self.cause = cause


@dataclass
class TaskResult:
    """Telemetry for one executed task."""

    task_id: str
    stage: str
    worker: str          # "serial" or "pid:<n>"
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
    def run_s(self) -> float:
        """Summed *task* run times (CPU-equivalent), so the accounting is
        identical whatever ``jobs`` was; the concurrent wall clock is
        :attr:`wall_s`."""
        return sum(t.run_s for t in self.tasks)

    def telemetry(self) -> str:
        """Human-readable per-task table (queue/run/worker)."""
        lines = [f"{'task':<24s} {'stage':<20s} {'worker':>10s} "
                 f"{'queue s':>8s} {'run s':>8s}"]
        for t in self.tasks:
            lines.append(
                f"{t.task_id:<24s} {t.stage:<20s} {t.worker:>10s} "
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
    """Parallel map over independent tasks.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (the default) executes in-process.
        ``None`` resolves at :meth:`run` to one worker per usable core,
        at most one per task — and to ``1`` when the process has
        another live thread, because forking a threaded process can
        deadlock the child.  :attr:`EngineReport.jobs` reports the
        resolved count.
    """

    def __init__(self, jobs: int | None = 1) -> None:
        self.jobs = None if jobs is None else max(1, int(jobs))

    def run(self, tasks: list[TaskSpec]) -> EngineReport:
        """Run every task; a duplicate task id raises :class:`ValueError`."""
        start = time.perf_counter()
        results: dict[str, object] = {}
        telemetry: list[TaskResult] = []

        with span("engine.run", tasks=len(tasks)):
            seen: set[str] = set()
            for spec in tasks:
                if spec.id in seen:
                    raise ValueError(f"duplicate task id {spec.id!r}")
                seen.add(spec.id)

            jobs = self._resolve_jobs(len(tasks))
            if tasks:
                if jobs == 1:
                    self._run_serial(tasks, results, telemetry)
                else:
                    self._run_pooled(tasks, results, telemetry, jobs)

        return EngineReport(
            jobs=jobs,
            wall_s=time.perf_counter() - start,
            results=results,
            tasks=telemetry,
        )

    # -- helpers -----------------------------------------------------------

    def _resolve_jobs(self, n_tasks: int) -> int:
        if self.jobs is not None:
            return self.jobs
        if threading.active_count() > 1:
            return 1
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            cores = os.cpu_count() or 1
        return max(1, min(cores, n_tasks))

    # -- serial ------------------------------------------------------------

    def _run_serial(
        self,
        pending: list[TaskSpec],
        results: dict[str, object],
        telemetry: list[TaskResult],
    ) -> None:
        for spec in pending:
            start = time.perf_counter()
            try:
                with span("engine.task", task=spec.id, stage=spec.stage):
                    value = spec.fn(*spec.args, **spec.kwargs)
            except Exception as exc:
                raise TaskError(spec.id, f"failed: {exc}", cause=exc) from exc
            results[spec.id] = value
            telemetry.append(TaskResult(spec.id, spec.stage, "serial", 0.0,
                                        time.perf_counter() - start))

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
                queue_s = max(0.0, now - submitted_at - run_s)
                observe("engine.queue_ms", queue_s * 1e3)
                if tracer is not None:
                    # Synthetic task span timed by the parent; the worker's own
                    # spans re-parent under it.
                    span_id = tracer.emit_span(
                        "engine.task", t0=now - run_s, dur=run_s,
                        attrs={"task": spec.id, "stage": spec.stage},
                    )
                    if events:
                        _collect.merge(tracer, events, parent_id=span_id)
                results[spec.id] = value
                telemetry.append(TaskResult(spec.id, spec.stage, f"pid:{pid}", queue_s, run_s))
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
