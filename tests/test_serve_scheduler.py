"""Scheduler policy: fairness, quotas, rate limiting, crash requeue.

The flow itself is stubbed out (``run_job`` is monkeypatched) so these
tests exercise the *scheduling* behaviour deterministically and fast;
the real end-to-end path is covered by ``test_serve_server.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import JobSpec, JobStore, QuotaError, RateLimitError, Scheduler, TenantQuota
from repro.serve.scheduler import Scheduler as SchedulerClass


def _spec(tenant="default", seed=0):
    return JobSpec(tenant=tenant, model="lenet5", part="small", effort="low", seed=seed)


@pytest.fixture
def idle_scheduler(tmp_path, monkeypatch):
    """A scheduler whose workers never consume — queues stay inspectable."""
    monkeypatch.setattr(SchedulerClass, "_worker", lambda self: None)

    def make(**kwargs):
        return Scheduler(JobStore(tmp_path), **kwargs)

    return make


class TestFairRotation:
    def test_round_robin_interleaves_tenants(self, idle_scheduler):
        """One worker, A floods 4 jobs, B queues 2: dispatch interleaves."""
        sched = idle_scheduler(workers=1, quota=TenantQuota(max_running=99))
        for seed in range(4):
            sched.submit(_spec("a", seed))
        for seed in range(2):
            sched.submit(_spec("b", seed))
        order = []
        with sched._cond:
            while True:
                record = sched._next_job()
                if record is None:
                    break
                order.append((record.spec.tenant, record.spec.seed))
        assert order == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("a", 3),
        ]

    def test_max_running_skips_tenant_at_cap(self, idle_scheduler):
        sched = idle_scheduler(workers=1, quota=TenantQuota(max_running=1))
        sched.submit(_spec("a", 0))
        sched.submit(_spec("a", 1))
        sched.submit(_spec("b", 0))
        with sched._cond:
            first = sched._next_job()
            assert (first.spec.tenant, first.spec.seed) == ("a", 0)
            second = sched._next_job()
            # A is at max_running=1 — its second job must wait; B runs.
            assert second.spec.tenant == "b"
            assert sched._next_job() is None  # both tenants at cap / empty
            sched._running["a"] -= 1         # simulate A's job finishing
            third = sched._next_job()
            assert (third.spec.tenant, third.spec.seed) == ("a", 1)


class TestQuotas:
    def test_max_queued_rejects_submit(self, idle_scheduler):
        sched = idle_scheduler(workers=1, quota=TenantQuota(max_queued=2))
        sched.submit(_spec("a", 0))
        sched.submit(_spec("a", 1))
        with pytest.raises(QuotaError):
            sched.submit(_spec("a", 2))
        # Other tenants have their own queues and are unaffected.
        sched.submit(_spec("b", 0))

    def test_rejected_submit_is_not_journaled(self, tmp_path, idle_scheduler):
        sched = idle_scheduler(workers=1, quota=TenantQuota(max_queued=1))
        sched.submit(_spec("a", 0))
        with pytest.raises(QuotaError):
            sched.submit(_spec("a", 1))
        assert len(sched.store.jobs()) == 1

    def test_token_bucket_rate_limits_submits(self, tmp_path, monkeypatch):
        monkeypatch.setattr(SchedulerClass, "_worker", lambda self: None)
        now = [1000.0]
        sched = Scheduler(
            JobStore(tmp_path), workers=1,
            quota=TenantQuota(rate=1.0, burst=2, max_queued=99),
            clock=lambda: now[0],
        )
        sched.submit(_spec("a", 0))          # burst token 1
        sched.submit(_spec("a", 1))          # burst token 2
        with pytest.raises(RateLimitError):
            sched.submit(_spec("a", 2))      # bucket empty
        now[0] += 0.4
        with pytest.raises(RateLimitError):  # only 0.4 tokens refilled
            sched.submit(_spec("a", 2))
        now[0] += 0.7
        sched.submit(_spec("a", 2))          # >= 1 token again
        # Rate limiting is per tenant: B is untouched by A's burn.
        sched.submit(_spec("b", 0))

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(max_running=0)
        with pytest.raises(ValueError):
            TenantQuota(max_queued=0)
        with pytest.raises(ValueError):
            TenantQuota(rate=-1.0)
        with pytest.raises(ValueError):
            TenantQuota(burst=0)

    def test_per_tenant_quota_overrides_default(self, idle_scheduler):
        sched = idle_scheduler(
            workers=1,
            quota=TenantQuota(max_queued=99),
            quotas={"cheap": TenantQuota(max_queued=1)},
        )
        assert sched.quota_for("cheap").max_queued == 1
        assert sched.quota_for("anyone-else").max_queued == 99
        sched.submit(_spec("cheap", 0))
        with pytest.raises(QuotaError):
            sched.submit(_spec("cheap", 1))


class TestExecution:
    def test_fairness_under_quota_pressure_end_to_end(self, tmp_path, monkeypatch):
        """With one worker, a flooding tenant cannot starve a light one."""
        order: list[tuple[str, int]] = []
        first_started = threading.Event()
        release = threading.Event()

        def stub(spec, *, store=None, progress=None):
            order.append((spec.tenant, spec.seed))
            if not first_started.is_set():
                first_started.set()
                release.wait(10.0)
            return {"fmax_mhz": 1.0}, "miss"

        monkeypatch.setattr("repro.serve.scheduler.run_job", stub)
        sched = Scheduler(
            JobStore(tmp_path), workers=1, quota=TenantQuota(max_running=99)
        )
        try:
            for seed in range(4):
                sched.submit(_spec("flood", seed))
            for seed in range(2):
                sched.submit(_spec("light", seed))
            first_started.wait(10.0)
            release.set()
            assert sched.wait_idle(timeout=30.0)
        finally:
            release.set()
            sched.shutdown()
        assert len(order) == 6
        # Both of light's jobs dispatch before flood's last one, even
        # though flood submitted its whole backlog first.
        assert order.index(("light", 0)) < order.index(("flood", 2))
        assert order.index(("light", 1)) < order.index(("flood", 3))
        for record in sched.store.jobs():
            assert record.state == "done"

    def test_max_running_caps_concurrency(self, tmp_path, monkeypatch):
        lock = threading.Lock()
        active = {"now": 0, "peak": 0}

        def stub(spec, *, store=None, progress=None):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.05)
            with lock:
                active["now"] -= 1
            return {"fmax_mhz": 1.0}, "miss"

        monkeypatch.setattr("repro.serve.scheduler.run_job", stub)
        sched = Scheduler(
            JobStore(tmp_path), workers=4, quota=TenantQuota(max_running=2)
        )
        try:
            for seed in range(8):
                sched.submit(_spec("a", seed))
            assert sched.wait_idle(timeout=30.0)
        finally:
            sched.shutdown()
        assert active["peak"] <= 2
        assert all(r.state == "done" for r in sched.store.jobs())

    def test_failed_job_is_journaled_with_traceback(self, tmp_path, monkeypatch):
        def stub(spec, *, store=None, progress=None):
            raise RuntimeError("router exploded")

        monkeypatch.setattr("repro.serve.scheduler.run_job", stub)
        sched = Scheduler(JobStore(tmp_path), workers=1)
        try:
            record = sched.submit(_spec())
            assert sched.wait_idle(timeout=10.0)
        finally:
            sched.shutdown()
        assert record.state == "failed"
        assert "RuntimeError: router exploded" in record.error
        assert record.progress.closed

    def test_recovered_jobs_requeue_and_rerun(self, tmp_path, monkeypatch):
        """A restarted scheduler finishes what the dead server accepted."""
        store = JobStore(tmp_path)
        record = store.submit(_spec(seed=7))
        store.mark_running(record)
        # SIGKILL here: journal says "running", no terminal event, no close.

        ran = []

        def stub(spec, *, store=None, progress=None):
            ran.append(spec.seed)
            return {"fmax_mhz": 1.0}, "hit"

        monkeypatch.setattr("repro.serve.scheduler.run_job", stub)
        reopened = JobStore(tmp_path)
        sched = Scheduler(reopened, workers=1)
        try:
            assert sched.wait_idle(timeout=10.0)
        finally:
            sched.shutdown()
        assert ran == [7]
        replayed = reopened.get(record.id)
        assert replayed.state == "done"
        assert replayed.recovered is True
        assert replayed.attempts == 2  # dead server's try + ours

    def test_submit_after_shutdown_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.serve.scheduler.run_job",
            lambda spec, *, store=None, progress=None: ({"fmax_mhz": 1.0}, "miss"),
        )
        sched = Scheduler(JobStore(tmp_path), workers=1)
        sched.shutdown()
        with pytest.raises(RuntimeError):
            sched.submit(_spec())

    @pytest.mark.parametrize("workers", [0, -2])
    def test_fewer_than_one_worker_is_refused(self, tmp_path, workers):
        # As the CLI's ``--workers`` refuses it: no silent one-worker pool.
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            Scheduler(JobStore(tmp_path), workers=workers)

    def test_stats_shape(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.serve.scheduler.run_job",
            lambda spec, *, store=None, progress=None: ({"fmax_mhz": 1.0}, "miss"),
        )
        sched = Scheduler(JobStore(tmp_path), workers=3)
        try:
            sched.submit(_spec())
            assert sched.wait_idle(timeout=10.0)
        finally:
            sched.shutdown()
        stats = sched.stats()
        assert stats["workers"] == 3
        assert stats["jobs"] == {"done": 1}
        assert stats["cache"] == {"hits": 0, "misses": 1}   # job-level, from the records
        assert stats["quotas"]["default"]["max_running"] == 2
