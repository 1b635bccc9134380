"""Multi-tenant job scheduler: fair queuing, quotas, one shared pool.

The scheduler multiplexes every tenant's submissions over one fixed pool
of worker threads (each worker drives the ordinary flow machinery, whose
offline phase in turn fans out through the :mod:`repro.engine` task
graph and the farm's component library).  Scheduling policy:

* **round-robin fairness** — dispatch rotates over tenants with queued
  work, so a tenant flooding the queue cannot starve the others: with
  one worker and tenants A (many jobs) and B (two), completion order
  interleaves A, B, A, B, A, A, ...;
* **per-tenant quotas** — ``max_running`` caps a tenant's concurrent
  builds (excess stays queued even when workers idle), ``max_queued``
  bounds its backlog (a full queue rejects the submit with
  :class:`QuotaError`), and an optional token bucket (``rate`` jobs/s,
  ``burst`` capacity) throttles the submit path itself
  (:class:`RateLimitError`);
* **crash recovery** — jobs the journal replay re-queued (see
  :class:`~repro.serve.store.JobStore`) are enqueued on construction,
  before any new submission, so a restarted server finishes what the
  dead one accepted.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass

from .. import sanitize
from ..spec import JobSpec
from .runner import run_job
from .store import JobRecord, JobStore

__all__ = ["TenantQuota", "QuotaError", "RateLimitError", "Scheduler"]


class QuotaError(RuntimeError):
    """The tenant's queue is full; resubmit after jobs drain."""


class RateLimitError(QuotaError):
    """The tenant is submitting faster than its token bucket refills."""


@dataclass(frozen=True)
class TenantQuota:
    """Limits applied to one tenant (or the default for all)."""

    max_running: int = 2
    max_queued: int = 32
    rate: float | None = None     # submits per second; None = unlimited
    burst: int = 4                # token-bucket capacity

    def __post_init__(self) -> None:
        if self.max_running < 1:
            raise ValueError("max_running must be >= 1")
        if self.max_queued < 1:
            raise ValueError("max_queued must be >= 1")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive (or None)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")


class Scheduler:
    """Fair multi-tenant dispatcher over a fixed worker-thread pool."""

    def __init__(
        self,
        store: JobStore,
        *,
        workers: int = 2,
        quota: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        clock=time.monotonic,
    ) -> None:
        if int(workers) < 1:
            raise ValueError(f"workers must be at least 1, got {workers!r}")
        self.store = store
        self.workers = int(workers)
        self.default_quota = quota or TenantQuota()
        self.quotas = dict(quotas or {})
        self._clock = clock
        self._cond = threading.Condition()
        self._queues: dict[str, deque[JobRecord]] = {}
        self._rr: deque[str] = deque()          # tenant dispatch rotation
        self._running: dict[str, int] = {}
        self._buckets: dict[str, list[float]] = {}   # tenant -> [tokens, t_last]
        self._stopping = False
        self._active = 0
        self._threads = [
            threading.Thread(target=self._worker, name=f"serve-worker-{i}", daemon=True)
            for i in range(self.workers)
        ]
        # Re-queue whatever a previous server accepted but never finished.
        for record in store.recovered_jobs():
            self._enqueue(record)
        for thread in self._threads:
            thread.start()

    # -- submission --------------------------------------------------------

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _take_token(self, tenant: str, quota: TenantQuota) -> bool:
        if quota.rate is None:
            return True
        now = self._clock()
        bucket = self._buckets.setdefault(tenant, [float(quota.burst), now])
        tokens, last = bucket
        tokens = min(float(quota.burst), tokens + (now - last) * quota.rate)
        if tokens < 1.0:
            bucket[0], bucket[1] = tokens, now
            return False
        bucket[0], bucket[1] = tokens - 1.0, now
        return True

    def submit(self, spec: JobSpec) -> JobRecord:
        """Validate quotas, journal the job, and queue it for dispatch."""
        quota = self.quota_for(spec.tenant)
        with self._cond:
            if self._stopping:
                raise RuntimeError("scheduler is shutting down")
            if not self._take_token(spec.tenant, quota):
                raise RateLimitError(
                    f"tenant {spec.tenant!r} exceeded {quota.rate}/s submit rate"
                )
            queue = self._queues.get(spec.tenant)
            if queue is not None and len(queue) >= quota.max_queued:
                raise QuotaError(
                    f"tenant {spec.tenant!r} queue full ({quota.max_queued} jobs)"
                )
        record = self.store.submit(spec)
        self._enqueue(record)
        return record

    def _enqueue(self, record: JobRecord) -> None:
        with self._cond:
            sanitize.note_write("serve.Scheduler._queues", self._cond)
            tenant = record.spec.tenant
            if tenant not in self._queues:
                self._queues[tenant] = deque()
                self._rr.append(tenant)
            self._queues[tenant].append(record)
            self._cond.notify_all()

    # -- dispatch ----------------------------------------------------------

    def _next_job(self) -> JobRecord | None:
        """Pop the next dispatchable job, rotating tenants fairly.

        Caller holds the lock.  Scans at most one full rotation; tenants
        at their ``max_running`` or with empty queues are skipped (and
        stay in the rotation for the next pass).
        """
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(tenant)
            if not queue:
                continue
            if self._running.get(tenant, 0) >= self.quota_for(tenant).max_running:
                continue
            record = queue.popleft()
            sanitize.note_write("serve.Scheduler._running", self._cond)
            self._running[tenant] = self._running.get(tenant, 0) + 1
            return record
        return None

    def _worker(self) -> None:
        while True:
            with self._cond:
                record = self._next_job()
                while record is None:
                    if self._stopping:
                        return
                    self._cond.wait(0.1)
                    record = self._next_job()
                self._active += 1
            tenant = record.spec.tenant
            try:
                self._run_one(record)
            finally:
                with self._cond:
                    self._running[tenant] -= 1
                    self._active -= 1
                    self._cond.notify_all()

    def _run_one(self, record: JobRecord) -> None:
        self.store.mark_running(record)
        try:
            result, cache_status = run_job(
                record.spec, store=self.store, progress=record.progress
            )
        except Exception as exc:
            detail = traceback.format_exc(limit=3)
            self.store.mark_failed(record, f"{type(exc).__name__}: {exc}\n{detail}")
        else:
            self.store.mark_done(record, result, cache=cache_status)

    # -- introspection / lifecycle ----------------------------------------

    def stats(self) -> dict:
        with self._cond:
            queued = {t: len(q) for t, q in self._queues.items() if q}
            running = {t: n for t, n in self._running.items() if n}
            active = self._active
        by_state: dict[str, int] = {}
        hits = misses = 0
        for record in self.store.jobs():
            by_state[record.state] = by_state.get(record.state, 0) + 1
            hits += record.cache == "hit"
            misses += record.cache == "miss"
        return {
            "workers": self.workers,
            "active": active,
            "queued": queued,
            "running": running,
            "jobs": by_state,
            "cache": {"hits": hits, "misses": misses},
            "quotas": {
                "default": vars(self.default_quota),
                **{t: vars(q) for t, q in self.quotas.items()},
            },
        }

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until no job is queued or running (True) or timeout."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                busy = self._active or any(self._queues.values())
                if not busy:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.2))

    def shutdown(self, *, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop dispatching; running jobs finish, queued jobs stay journaled
        as ``queued`` and will be recovered by the next server."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if wait:
            deadline = time.monotonic() + timeout
            for thread in self._threads:
                thread.join(max(0.0, deadline - time.monotonic()))
