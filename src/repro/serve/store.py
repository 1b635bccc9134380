"""Durable job store: journal, results, and the farm's component library.

Everything the compile service must not lose lives under one data
directory::

    <root>/journal.jsonl       append-only job event journal
    <root>/results/<key>.json  result document of each spec content key
    <root>/library/<key>.dcpb  component library (content-addressed)

The journal is the source of truth for job state.  Every transition is
one JSON line (``submit`` / ``state``), appended under a lock and
flushed, so a server killed mid-build loses at most the in-flight
stage's progress — never a whole job.  On startup :meth:`JobStore.
replay` folds the journal back into job records; jobs the dead server
left ``queued`` or ``running`` are reset to ``queued`` and flagged
``recovered`` so the scheduler re-runs them (builds are pure and
content-addressed, so a re-run is safe and usually warm).

Every worker of every server process on this data dir shares the results
and the library: a result is filed under its spec's content key (jobs of
one spec, from any tenant, read one file) and a component under its
build key (:meth:`~repro.rapidwright.database.ComponentDatabase.build`),
each written whole by :func:`~repro.engine.cache.write_atomic`, which is
what makes warm resubmits near-instant.  Every file is rebuildable.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import sanitize
from ..engine.cache import write_atomic
from ..spec import JobSpec
from .progress import ProgressLog

__all__ = ["JobRecord", "JobStore", "JOB_STATES"]

JOB_STATES = ("queued", "running", "done", "failed")

@dataclass
class JobRecord:
    """In-memory view of one job (journal-backed)."""

    id: str
    spec: JobSpec
    key: str                      # spec content key (result address)
    state: str = "queued"
    submitted_t: float = 0.0
    started_t: float | None = None
    finished_t: float | None = None
    error: str | None = None
    cache: str | None = None      # "hit" | "miss" once finished
    recovered: bool = False       # re-queued by journal replay
    attempts: int = 0
    progress: ProgressLog = field(default_factory=ProgressLog, repr=False)

    @property
    def wall_s(self) -> float | None:
        if self.started_t is None or self.finished_t is None:
            return None
        return self.finished_t - self.started_t

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.spec.tenant,
            "network": self.spec.network_name,
            "part": self.spec.part,
            "flow": self.spec.flow,
            "state": self.state,
            "key": self.key,
            "submitted_t": self.submitted_t,
            "started_t": self.started_t,
            "finished_t": self.finished_t,
            "wall_s": self.wall_s,
            "error": self.error,
            "cache": self.cache,
            "recovered": self.recovered,
            "attempts": self.attempts,
            "spec": self.spec.to_json(),
        }


class JobStore:
    """Journal-backed job registry plus the farm's results and library."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.results_dir = self.root / "results"
        self.results_dir.mkdir(exist_ok=True)
        self.library = self.root / "library"
        self.journal_path = self.root / "journal.jsonl"
        self._lock = threading.Lock()
        self._jobs: dict[str, JobRecord] = {}
        self._next_seq = 1
        self.replayed = self.replay()
        self._journal_fh = open(self.journal_path, "a", encoding="utf-8")
        # A killed writer can leave a torn final line with no newline; start
        # our first append on a fresh line so the torn one stays isolated.
        if self.journal_path.stat().st_size > 0:
            with open(self.journal_path, "rb") as fh:
                fh.seek(-1, 2)
                if fh.read(1) != b"\n":
                    self._journal_fh.write("\n")
                    self._journal_fh.flush()

    # -- journal -----------------------------------------------------------

    def _append(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True)
        with self._lock:
            sanitize.note_write("serve.JobStore.journal", self._lock)
            self._journal_fh.write(line + "\n")
            self._journal_fh.flush()

    def replay(self) -> int:
        """Fold the journal into job records; returns lines replayed.

        Jobs whose last journaled state is non-terminal are reset to
        ``queued`` with ``recovered=True`` — the invariant after any
        restart is that no job is left claiming to run on a dead server.
        """
        if not self.journal_path.exists():
            return 0
        lines = 0
        with open(self.journal_path, "r", encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    event = json.loads(raw)
                except json.JSONDecodeError:
                    continue  # torn final line from a killed server
                lines += 1
                ev = event.get("ev")
                if ev == "submit":
                    try:
                        spec = JobSpec.from_json(event["spec"])
                    except Exception:
                        continue
                    record = JobRecord(
                        id=event["job"], spec=spec,
                        key=event.get("key") or spec.content_key(),
                        submitted_t=event.get("t", 0.0),
                    )
                    self._jobs[record.id] = record
                    seq = _job_seq(record.id)
                    if seq is not None:
                        self._next_seq = max(self._next_seq, seq + 1)
                elif ev == "state":
                    record = self._jobs.get(event.get("job", ""))
                    if record is None:
                        continue
                    record.state = event.get("state", record.state)
                    if record.state == "running":
                        record.started_t = event.get("t")
                        record.attempts = event.get("attempt", record.attempts)
                    elif record.state in ("done", "failed"):
                        record.finished_t = event.get("t")
                        record.error = event.get("error")
                        record.cache = event.get("cache")
        for record in self._jobs.values():
            if record.state in ("queued", "running"):
                record.state = "queued"
                record.recovered = True
                record.started_t = None
            else:
                record.progress.close()
        return lines

    # -- job lifecycle -----------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        with self._lock:
            job_id = f"j{self._next_seq:06d}"
            self._next_seq += 1
        record = JobRecord(
            id=job_id, spec=spec, key=spec.content_key(), submitted_t=time.time()
        )
        self._jobs[job_id] = record
        self._append({
            "ev": "submit", "job": job_id, "t": record.submitted_t,
            "key": record.key, "spec": spec.to_json(),
        })
        record.progress.append("state", state="queued")
        return record

    def mark_running(self, record: JobRecord) -> None:
        record.state = "running"
        record.started_t = time.time()
        record.attempts += 1
        self._append({
            "ev": "state", "job": record.id, "state": "running",
            "t": record.started_t, "attempt": record.attempts,
        })
        record.progress.append("state", state="running", attempt=record.attempts)

    def mark_done(self, record: JobRecord, result: dict, *, cache: str) -> None:
        if cache != "hit":  # a hit was read from the file it would write
            self.save_result(record.key, result)
        record.state = "done"
        record.finished_t = time.time()
        record.cache = cache
        self._append({
            "ev": "state", "job": record.id, "state": "done",
            "t": record.finished_t, "cache": cache,
        })
        record.progress.append(
            "state", state="done", cache=cache,
            fmax_mhz=result.get("fmax_mhz"), wall_s=record.wall_s,
        )
        record.progress.close()

    def mark_failed(self, record: JobRecord, error: str) -> None:
        record.state = "failed"
        record.finished_t = time.time()
        record.error = error
        self._append({
            "ev": "state", "job": record.id, "state": "failed",
            "t": record.finished_t, "error": error,
        })
        record.progress.append("state", state="failed", error=error)
        record.progress.close()

    # -- lookup ------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        return self._jobs.get(job_id)

    def jobs(self, *, tenant: str | None = None, state: str | None = None) -> list[JobRecord]:
        records = sorted(self._jobs.values(), key=lambda r: r.id)
        if tenant is not None:
            records = [r for r in records if r.spec.tenant == tenant]
        if state is not None:
            records = [r for r in records if r.state == state]
        return records

    def recovered_jobs(self) -> list[JobRecord]:
        """Jobs replay re-queued (for the scheduler to pick back up)."""
        return [r for r in self.jobs(state="queued") if r.recovered]

    # -- results -----------------------------------------------------------

    def result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def save_result(self, key: str, result: dict) -> Path:
        # write_atomic, not a fixed "<key>.json.tmp": two jobs of one spec
        # (or a recovered job racing its zombie run, or two servers on one
        # data dir) must not interleave writes into the same temp file.
        path = self.result_path(key)
        write_atomic(path, json.dumps(result, sort_keys=True, indent=1).encode())
        return path

    def load_result(self, key: str) -> dict | None:
        """The result document filed under *key*, or ``None``."""
        try:
            return json.loads(self.result_path(key).read_text())
        except (FileNotFoundError, ValueError):  # absent, or not a document
            return None

    def close(self) -> None:
        with self._lock:
            if not self._journal_fh.closed:
                self._journal_fh.close()


def _job_seq(job_id: str) -> int | None:
    if job_id.startswith("j"):
        try:
            return int(job_id[1:])
        except ValueError:
            return None
    return None
