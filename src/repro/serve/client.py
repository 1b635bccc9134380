"""Stdlib HTTP client for the compile service.

Thin wrapper over :mod:`http.client` used by the ``repro submit`` /
``jobs`` / ``result`` CLI commands, the load benchmark, and the tests —
anything that talks to a :class:`~repro.serve.server.ServeServer`
without importing the server side.  One connection per request (the
server closes after each response anyway), JSON in and out, errors
surfaced as :class:`ServeApiError` with the HTTP status attached.
"""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import urlencode, urlsplit

__all__ = ["ServeApiError", "ServeClient"]

#: Long-poll wait of each page :meth:`ServeClient.stream_events` asks for, s.
EVENTS_POLL_S = 10.0
#: Longest wait between two of :meth:`ServeClient.wait_result`'s status checks, s.
RESULT_POLL_S = 5.0


class ServeApiError(RuntimeError):
    """Non-2xx response from the compile service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """Client bound to one server base URL (``http://host:port``)."""

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"only http:// URLs are supported, got {base_url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------

    def _request(self, method: str, path: str, *, body: dict | None = None,
                 query: dict | None = None, timeout: float | None = None) -> dict:
        if query:
            path = f"{path}?{urlencode({k: v for k, v in query.items() if v is not None})}"
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout if timeout is not None else self.timeout
        )
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                data = json.loads(raw.decode() or "{}")
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ServeApiError(
                    response.status, f"non-JSON response: {raw[:200]!r}"
                ) from exc
            if response.status >= 400:
                raise ServeApiError(
                    response.status, str(data.get("error", raw[:200]))
                )
            return data
        finally:
            conn.close()

    # -- endpoints ---------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def farm(self) -> dict:
        return self._request("GET", "/v1/farm")

    def models(self) -> list[dict]:
        return self._request("GET", "/v1/models")["models"]

    def parts(self) -> list[dict]:
        return self._request("GET", "/v1/parts")["parts"]

    def submit(self, spec: dict) -> dict:
        """Submit a job spec; returns the created job record."""
        return self._request("POST", "/v1/jobs", body=spec)

    def jobs(self, *, tenant: str | None = None, state: str | None = None) -> list[dict]:
        return self._request(
            "GET", "/v1/jobs", query={"tenant": tenant, "state": state}
        )["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def events(self, job_id: str, *, after: int = -1, wait: float = 0.0) -> dict:
        """One page of the progress stream (long-polls when ``wait > 0``)."""
        return self._request(
            "GET", f"/v1/jobs/{job_id}/events",
            query={"after": after, "wait": wait},
            timeout=self.timeout + wait,
        )

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    # -- conveniences ------------------------------------------------------

    def stream_events(self, job_id: str, *, timeout: float = 600.0):
        """Yield progress events until the job's log closes."""
        deadline = time.monotonic() + timeout
        cursor = -1
        while True:
            page = self.events(job_id, after=cursor, wait=EVENTS_POLL_S)
            for event in page["events"]:
                cursor = max(cursor, event["seq"])
                yield event
            if page["closed"] and not page["events"]:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {page['state']} after {timeout}s")

    def wait_result(self, job_id: str, *, timeout: float = 600.0) -> dict:
        """Block until the job finishes; returns the result envelope.

        Raises :class:`ServeApiError` bubbling the failure for jobs that
        end in ``failed`` state (the envelope still carries the error).
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed"):
                return self.result(job_id)
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {job['state']} after {timeout}s")
            # Park on the event stream rather than busy-polling status.
            self.events(job_id, after=10 ** 9, wait=min(RESULT_POLL_S, deadline - time.monotonic()))
