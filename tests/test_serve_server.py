"""Compile-service end to end: HTTP API, warm results, progress, recovery.

These tests run real (small) builds — lenet5 on the small part at low
effort takes well under a second — through the full stack: HTTP server,
scheduler, job store, stored results and component library, progress
stream.  The crash test
runs the server in a child process and SIGKILLs it mid-build.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.obs.sinks import InMemorySink
from repro.obs.span import Tracer
from repro.serve import (
    JobSpec,
    JobStore,
    ProgressLog,
    ServeApiError,
    ServeClient,
    ServeServer,
)
from repro.serve.progress import stage_of
from repro.serve.runner import RESULT_SCHEMA, _execute, build_result_doc, run_job
from repro.spec import compile_spec

SPEC = {"model": "lenet5", "part": "small", "effort": "low"}


@pytest.fixture
def server(tmp_path):
    srv = ServeServer(tmp_path / "data", workers=2).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    return ServeClient(server.url, timeout=60.0)


class TestHttpApi:
    def test_health_models_parts_farm(self, client):
        assert client.health()["ok"] is True
        models = {m["name"]: m for m in client.models()}
        assert "lenet5" in models and models["lenet5"]["conv_layers"] > 0
        parts = {p["name"] for p in client.parts()}
        assert {"tiny", "small", "ku5p-like"} <= parts
        farm = client.farm()
        assert farm["workers"] == 2
        assert farm["replayed"] == 0

    def test_submit_runs_to_done_with_progress(self, client):
        job = client.submit(SPEC)
        assert job["state"] == "queued" and job["id"] == "j000001"
        envelope = client.wait_result(job["id"], timeout=120.0)
        assert envelope["state"] == "done"
        result = envelope["result"]
        assert result["fmax_mhz"] > 0
        assert result["cells"] > 0 and result["nets"] > 0
        assert result["stages"]  # per-stage breakdown present
        assert 0.0 < result["power_w"]

        page = client.events(job["id"])
        events = page["events"]
        assert page["closed"] is True
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "state" and events[0]["state"] == "queued"
        assert events[-1]["kind"] == "state" and events[-1]["state"] == "done"
        stages = [e["stage"] for e in events if e["kind"] == "stage"]
        assert "synth" in stages and "route" in stages and "sta" in stages
        # seq is dense and the cursor works.
        assert [e["seq"] for e in events] == list(range(len(events)))
        tail = client.events(job["id"], after=events[-2]["seq"])["events"]
        assert [e["seq"] for e in tail] == [events[-1]["seq"]]

    def test_warm_resubmit_is_5x_faster_across_tenants(self, client):
        cold_job = client.submit({**SPEC, "tenant": "alice"})
        cold = client.wait_result(cold_job["id"], timeout=120.0)
        assert cold["cache"] == "miss"

        warm_job = client.submit({**SPEC, "tenant": "bob"})
        warm = client.wait_result(warm_job["id"], timeout=120.0)
        assert warm["cache"] == "hit"
        assert warm["result"] == cold["result"]  # identical build, shared key
        assert cold["wall_s"] / max(warm["wall_s"], 1e-9) >= 5.0

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServeApiError) as err:
            client.submit({"model": "nonexistent-net"})
        assert err.value.status == 400
        with pytest.raises(ServeApiError) as err:
            client.submit({"model": "lenet5", "frobnicate": True})
        assert err.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeApiError) as err:
            client.job("j999999")
        assert err.value.status == 404

    def test_result_before_done_is_409(self, client):
        job = client.submit(SPEC)
        try:
            envelope = client.result(job["id"])
        except ServeApiError as err:
            assert err.status == 409
        else:
            # Only reachable if the build already finished — then it must
            # be a real result, not a half-written one.
            assert envelope["state"] == "done"
        client.wait_result(job["id"], timeout=120.0)

    def test_quota_rejection_is_429(self, tmp_path):
        from repro.serve import TenantQuota

        srv = ServeServer(
            tmp_path / "q", workers=1,
            quota=TenantQuota(rate=0.001, burst=1, max_queued=99),
        ).start()
        try:
            client = ServeClient(srv.url)
            client.submit(SPEC)
            with pytest.raises(ServeApiError) as err:
                client.submit({**SPEC, "seed": 1})
            assert err.value.status == 429
        finally:
            srv.stop()

    def test_jobs_listing_filters(self, client):
        client.submit({**SPEC, "tenant": "alice"})
        job_b = client.submit({**SPEC, "tenant": "bob", "seed": 3})
        client.wait_result(job_b["id"], timeout=120.0)
        assert {j["tenant"] for j in client.jobs()} == {"alice", "bob"}
        bobs = client.jobs(tenant="bob")
        assert [j["id"] for j in bobs] == [job_b["id"]]
        client.wait_result("j000001", timeout=120.0)

    def test_failed_job_result_carries_error(self, tmp_path, monkeypatch):
        def boom(spec, *, store=None, progress=None):
            raise RuntimeError("no congestion-free routing exists")

        monkeypatch.setattr("repro.serve.scheduler.run_job", boom)
        srv = ServeServer(tmp_path / "f", workers=1).start()
        try:
            client = ServeClient(srv.url)
            job = client.submit(SPEC)
            envelope = client.wait_result(job["id"], timeout=30.0)
            assert envelope["state"] == "failed"
            assert "no congestion-free routing exists" in envelope["error"]
        finally:
            srv.stop()


class TestResultDoc:
    def test_stages_are_the_runs_stage_ledger(self):
        spec = JobSpec(**SPEC)
        result = compile_spec(spec, jobs=1)
        doc = build_result_doc(spec, result, wall_s=0.0)
        assert doc["schema"] == RESULT_SCHEMA
        assert list(doc["stages"]) == list(result.stages)


class TestStoredResults:
    def test_result_of_another_schema_is_a_miss(self, tmp_path):
        """A bumped RESULT_SCHEMA invalidates every stored document."""
        spec = JobSpec(**SPEC)
        store = JobStore(tmp_path)
        stale = {"schema": RESULT_SCHEMA - 1, "fmax_mhz": 1.0}
        store.save_result(spec.content_key(), stale)
        doc, status = run_job(spec, store=store)
        assert status == "miss" and doc["schema"] == RESULT_SCHEMA
        assert doc["fmax_mhz"] != stale["fmax_mhz"]
        store.save_result(spec.content_key(), doc)
        assert run_job(spec, store=store) == (doc, "hit")

    def test_jobs_differing_only_in_pipeline_preimplement_the_library_once(self, tmp_path):
        store = JobStore(tmp_path)
        first, status = run_job(JobSpec(**SPEC), store=store)
        assert status == "miss" and first["offline_s"] > 0.0
        files = {p.name: p.read_bytes() for p in store.library.iterdir()}
        assert len(files) == first["db_checkpoints"]
        second, status = run_job(JobSpec(**SPEC, pipeline="auto"), store=store)
        assert status == "miss" and second["offline_s"] == 0.0
        assert {p.name: p.read_bytes() for p in store.library.iterdir()} == files


class TestProgressCanonical:
    def test_event_order_matches_canonical_span_order(self, tmp_path):
        """The progress stream is the span tree, filtered — same order."""
        spec = JobSpec(**SPEC)

        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.activate():
            _execute(spec, None)
        tracer.finish()
        expected = [
            (stage_of(e["name"]), e["name"])
            for e in sink.events
            if e.get("ph") == "span" and stage_of(e.get("name", "")) is not None
        ]
        assert expected, "flow emitted no mapped spans"

        log = ProgressLog()
        run_job(spec, progress=log)
        got = [
            (e["stage"], e["span"]) for e in log.since() if e["kind"] == "stage"
        ]
        assert got == expected

    def test_progress_order_is_deterministic_across_runs(self):
        spec = JobSpec(**SPEC)
        sequences = []
        for _ in range(2):
            log = ProgressLog()
            run_job(spec, progress=log)
            sequences.append(
                [(e["stage"], e["span"]) for e in log.since() if e["kind"] == "stage"]
            )
        assert sequences[0] == sequences[1]


_CHILD_SERVER = """
import sys
from repro.serve import ServeServer
ServeServer(sys.argv[1], workers=1).serve_forever()
"""


class TestCrashRecovery:
    def test_sigkill_mid_build_then_restart_finishes_all_jobs(self, tmp_path):
        """Acceptance: kill -9 a building server; a restart must leave no
        job orphaned in 'running' and must re-run everything journaled."""
        data_dir = tmp_path / "farm"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SERVER, str(data_dir)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            discovery = data_dir / "serve.json"
            deadline = time.monotonic() + 60.0
            while not discovery.exists():
                assert proc.poll() is None, "child server died before binding"
                assert time.monotonic() < deadline, "server never wrote serve.json"
                time.sleep(0.05)
            url = json.loads(discovery.read_text())["url"]
            client = ServeClient(url, timeout=30.0)

            job_ids = [
                client.submit({**SPEC, "seed": seed})["id"] for seed in range(4)
            ]
            # Kill as soon as the first build is underway: the journal now
            # holds one 'running' and several 'queued' jobs.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                states = {j["id"]: j["state"] for j in client.jobs()}
                if "running" in states.values():
                    break
                time.sleep(0.02)
            assert "running" in states.values(), f"no job started: {states}"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)

        # Restart over the same data dir (in-process this time).
        srv = ServeServer(data_dir, workers=2).start()
        try:
            client = ServeClient(srv.url, timeout=60.0)
            assert client.farm()["replayed"] > 0
            for job_id in job_ids:
                envelope = client.wait_result(job_id, timeout=180.0)
                assert envelope["state"] == "done", envelope
            records = client.jobs()
            assert {r["state"] for r in records} == {"done"}
            # The interrupted + queued jobs all carry the recovered flag.
            assert sum(1 for r in records if r["recovered"]) >= 3
            assert all(r["state"] not in ("queued", "running") for r in records)
        finally:
            srv.stop()
