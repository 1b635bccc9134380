"""The compile service's HTTP/JSON front end (stdlib asyncio only).

A deliberately small, handwritten HTTP/1.1 layer over
``asyncio.start_server`` — no framework, no dependencies — exposing the
scheduler and job store:

===========================================  =================================
endpoint                                     meaning
===========================================  =================================
``GET  /healthz``                            liveness probe
``GET  /v1/farm``                            scheduler/job-hit/quota stats
``GET  /v1/models``                          stock networks (machine-readable)
``GET  /v1/parts``                           device parts
``POST /v1/jobs``                            submit a :class:`JobSpec` body
``GET  /v1/jobs[?tenant=..&state=..]``       list jobs
``GET  /v1/jobs/<id>``                       one job's status
``GET  /v1/jobs/<id>/events?after=N&wait=S`` long-poll progress stream
``GET  /v1/jobs/<id>/result``                result document (409 until done)
===========================================  =================================

Submissions return ``201`` with the job record, quota rejections ``429``,
malformed specs ``400``.  The progress endpoint is a cursor-based long
poll: pass the last seen ``seq`` as ``after`` and a ``wait`` budget in
seconds; the server parks the request (off the event loop, in an
executor thread) until new events arrive or the job finishes, SSE-style
streaming without the framing.

The server runs its asyncio loop in a background thread
(:meth:`ServeServer.start` / :meth:`~ServeServer.stop`), so the CLI, the
tests, and the load benchmark all drive the same object.  On startup it
writes ``<data_dir>/serve.json`` (host, port, pid) for discovery — the
CLI's ``--port 0`` picks a free port and clients read it from there.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import threading
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from ..cnn import models_doc
from ..fabric import PART_CATALOG, part_doc
from ..spec import JobSpec, SpecError
from .scheduler import QuotaError, Scheduler, TenantQuota
from .store import JobStore

__all__ = ["ServeServer"]

_MAX_BODY = 4 * 1024 * 1024
#: Server-side ceiling on one long-poll park (clients re-issue).
_MAX_WAIT_S = 30.0


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}


class ServeServer:
    """One compile-service instance bound to a data directory."""

    def __init__(
        self,
        data_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        quota: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.host = host
        self.port = port            # 0 = pick free; real port set on start
        self.store = JobStore(self.data_dir)
        self.scheduler = Scheduler(
            self.store, workers=workers, quota=quota, quotas=quotas
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeServer":
        """Run the HTTP listener in a background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-http", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._start_error is not None:
            raise RuntimeError(f"server failed to start: {self._start_error}")
        if not self._started.is_set():
            raise RuntimeError("server failed to start within 10s")
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
            )
        except BaseException as exc:
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self._write_discovery()
        self._started.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.close()

    def _write_discovery(self) -> None:
        # mkstemp + replace: two servers pointed at one data dir must not
        # interleave writes into a shared "serve.json.tmp".
        path = self.data_dir / "serve.json"
        blob = json.dumps(
            {"host": self.host, "port": self.port, "pid": os.getpid(),
             "url": self.url}
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".serve-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def stop(self, *, timeout: float = 30.0) -> None:
        """Graceful stop: finish running jobs, leave queued jobs journaled."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self.scheduler.shutdown(wait=True, timeout=timeout)
        self.store.close()

    def serve_forever(self) -> None:
        """Foreground mode for the CLI: start and block until interrupted."""
        if self._thread is None:
            self.start()
        try:
            while True:
                self._thread.join(1.0)
                if not self._thread.is_alive():
                    break
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._dispatch(reader)
        except _HttpError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except Exception as exc:  # never kill the connection handler
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload, sort_keys=True).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, reader: asyncio.StreamReader) -> tuple[int, object]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise _HttpError(413, f"body exceeds {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return await self._route(method.upper(), split.path, query, body)

    # -- routing -----------------------------------------------------------

    async def _route(self, method: str, path: str, query: dict, body: bytes) -> tuple[int, object]:
        segments = [s for s in path.split("/") if s]
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "jobs": len(self.store.jobs())}
        if segments[:1] != ["v1"]:
            raise _HttpError(404, f"unknown path {path!r}")
        rest = segments[1:]
        if rest == ["farm"] and method == "GET":
            stats = self.scheduler.stats()
            stats["data_dir"] = str(self.data_dir)
            stats["replayed"] = self.store.replayed
            return 200, stats
        if rest == ["models"] and method == "GET":
            return 200, models_doc()
        if rest == ["parts"] and method == "GET":
            return 200, {"parts": [part_doc(name) for name in sorted(PART_CATALOG)]}
        if rest == ["jobs"]:
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                records = self.store.jobs(
                    tenant=query.get("tenant"), state=query.get("state")
                )
                return 200, {"jobs": [r.to_json() for r in records]}
            raise _HttpError(405, f"{method} not allowed on /v1/jobs")
        if len(rest) >= 2 and rest[0] == "jobs":
            record = self.store.get(rest[1])
            if record is None:
                raise _HttpError(404, f"unknown job {rest[1]!r}")
            if len(rest) == 2 and method == "GET":
                return 200, record.to_json()
            if rest[2:] == ["events"] and method == "GET":
                return await self._events(record, query)
            if rest[2:] == ["result"] and method == "GET":
                return self._result(record)
        raise _HttpError(404, f"unknown path {path!r}")

    def _submit(self, body: bytes) -> tuple[int, object]:
        try:
            data = json.loads(body.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from exc
        try:
            spec = JobSpec.from_json(data)
        except SpecError as exc:
            raise _HttpError(400, str(exc)) from exc
        try:
            record = self.scheduler.submit(spec)
        except QuotaError as exc:  # a RateLimitError too
            raise _HttpError(429, str(exc)) from exc
        except RuntimeError as exc:
            raise _HttpError(409, str(exc)) from exc
        return 201, record.to_json()

    async def _events(self, record, query: dict) -> tuple[int, object]:
        try:
            after = int(query.get("after", "-1"))
            wait_s = min(float(query.get("wait", "0")), _MAX_WAIT_S)
        except ValueError as exc:
            raise _HttpError(400, f"bad events query: {exc}") from exc
        if wait_s > 0:
            loop = asyncio.get_running_loop()
            events = await loop.run_in_executor(
                None, lambda: record.progress.wait(after, wait_s)
            )
        else:
            events = record.progress.since(after)
        return 200, {
            "job": record.id,
            "state": record.state,
            "closed": record.progress.closed,
            "events": events,
        }

    def _result(self, record) -> tuple[int, object]:
        if record.state == "failed":
            return 200, {"job": record.id, "state": "failed", "error": record.error}
        if record.state != "done":
            raise _HttpError(
                409, f"job {record.id} is {record.state}; result not ready"
            )
        result = self.store.load_result(record.key)
        if result is None:
            raise _HttpError(500, f"job {record.id} done but result file missing")
        return 200, {
            "job": record.id, "state": "done", "cache": record.cache,
            "wall_s": record.wall_s, "result": result,
        }
