"""JobStore: journal replay, crash recovery, results filed by content key."""

from __future__ import annotations

import json

from repro.serve import JobSpec, JobStore


def _spec(**kw):
    kw.setdefault("model", "lenet5")
    kw.setdefault("part", "small")
    kw.setdefault("effort", "low")
    return JobSpec(**kw)


class TestJournal:
    def test_submit_appends_journal_line(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(_spec())
        store.close()
        lines = [json.loads(l) for l in (tmp_path / "journal.jsonl").read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["ev"] == "submit"
        assert lines[0]["job"] == record.id == "j000001"
        assert lines[0]["key"] == record.key

    def test_full_lifecycle_replays_as_done(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(_spec())
        store.mark_running(record)
        store.mark_done(record, {"fmax_mhz": 123.0}, cache="miss")
        store.close()

        reopened = JobStore(tmp_path)
        replayed = reopened.get(record.id)
        assert replayed is not None
        assert replayed.state == "done"
        assert replayed.cache == "miss"
        assert replayed.recovered is False
        assert replayed.progress.closed  # terminal jobs never park a waiter
        assert reopened.load_result(record.key) == {"fmax_mhz": 123.0}

    def test_failed_job_replays_with_error(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(_spec())
        store.mark_running(record)
        store.mark_failed(record, "BoomError: kaput")
        store.close()

        replayed = JobStore(tmp_path).get(record.id)
        assert replayed.state == "failed"
        assert "BoomError" in replayed.error
        assert replayed.recovered is False


class TestCrashRecovery:
    def test_running_job_requeues_as_recovered(self, tmp_path):
        """A server killed mid-build must not leave orphaned 'running' jobs."""
        store = JobStore(tmp_path)
        record = store.submit(_spec())
        store.mark_running(record)
        # Simulate SIGKILL: no mark_done/mark_failed, no clean close.

        reopened = JobStore(tmp_path)
        replayed = reopened.get(record.id)
        assert replayed.state == "queued"
        assert replayed.recovered is True
        assert replayed.started_t is None
        assert reopened.recovered_jobs() == [replayed]

    def test_queued_job_requeues_as_recovered(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(_spec())

        replayed = JobStore(tmp_path).get(record.id)
        assert replayed.state == "queued"
        assert replayed.recovered is True

    def test_torn_final_line_is_tolerated(self, tmp_path):
        store = JobStore(tmp_path)
        done = store.submit(_spec())
        store.mark_running(done)
        store.mark_done(done, {"fmax_mhz": 1.0}, cache="hit")
        store.close()
        # A killed server's last write can be torn mid-line.
        with open(tmp_path / "journal.jsonl", "a") as fh:
            fh.write('{"ev": "state", "job": "j0000')

        reopened = JobStore(tmp_path)
        assert reopened.get(done.id).state == "done"
        # New submissions append cleanly after the torn line.
        fresh = reopened.submit(_spec())
        reopened.close()
        assert JobStore(tmp_path).get(fresh.id).state == "queued"

    def test_job_ids_continue_after_replay(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_spec())
        store.submit(_spec(seed=1))
        store.close()

        reopened = JobStore(tmp_path)
        third = reopened.submit(_spec(seed=2))
        assert third.id == "j000003"

    def test_unknown_state_line_for_missing_job_ignored(self, tmp_path):
        (tmp_path / "journal.jsonl").write_text(
            json.dumps({"ev": "state", "job": "j999999", "state": "done"}) + "\n"
        )
        store = JobStore(tmp_path)
        assert store.jobs() == []
        assert store.replayed == 1


class TestResults:
    def test_result_roundtrip_and_atomic_write(self, tmp_path):
        store = JobStore(tmp_path)
        doc = {"fmax_mhz": 282.4, "stages": {"route": 0.01}}
        path = store.save_result("j000042", doc)
        assert path == tmp_path / "results" / "j000042.json"
        assert store.load_result("j000042") == doc
        assert not path.with_name(path.name + ".tmp").exists()

    def test_missing_result_is_none(self, tmp_path):
        assert JobStore(tmp_path).load_result("j000001") is None

    def test_concurrent_saves_never_tear(self, tmp_path):
        """Regression: save_result used a fixed '<id>.json.tmp' staging
        name, so two writers for the same job (a recovered job racing its
        zombie run, or two servers on one data dir) interleaved writes in
        the same temp file and could publish a torn document.  With
        mkstemp staging every published version parses and is one of the
        writers' documents, and no temp droppings survive."""
        import concurrent.futures

        store = JobStore(tmp_path)
        docs = [{"writer": i, "pad": "x" * (2000 + i)} for i in range(8)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda d: store.save_result("j000042", d), docs))
        final = store.load_result("j000042")
        assert final in docs
        leftovers = [p for p in (tmp_path / "results").iterdir()
                     if p.suffix != ".json"]
        assert not leftovers


class TestFarmCache:
    def test_cache_survives_restart(self, tmp_path):
        """A result is filed once, under its spec's content key: every job
        of that spec, from any tenant and after a restart, reads that file."""
        store = JobStore(tmp_path)
        record = store.submit(_spec(tenant="alice"))
        store.mark_running(record)
        store.mark_done(record, {"fmax_mhz": 2.0}, cache="miss")
        store.close()
        reopened = JobStore(tmp_path)
        other = reopened.submit(_spec(tenant="bob"))
        assert other.key == record.key
        assert reopened.load_result(other.key) == {"fmax_mhz": 2.0}
        assert [p.name for p in (tmp_path / "results").iterdir()] == [f"{record.key}.json"]
        assert reopened.library == tmp_path / "library"
