"""repro.serve — concurrent multi-tenant compile service.

Turns the blocking flows into resumable jobs behind an HTTP/JSON API:
submissions are validated :class:`JobSpec` documents, scheduled fairly
across tenants over one shared worker pool (:class:`Scheduler`), journaled
durably (:class:`JobStore`) so a killed server recovers its queue, served
warm from the farm's stored results and component library, and streamed back as
per-stage progress events bridged from :mod:`repro.obs` spans.

Quickstart::

    from repro.serve import ServeServer, ServeClient

    server = ServeServer("serve-data", workers=2).start()
    client = ServeClient(server.url)
    job = client.submit({"model": "lenet5", "part": "small", "effort": "low"})
    print(client.wait_result(job["id"])["result"]["fmax_mhz"])
    server.stop()
"""

from ..spec import JobSpec, SpecError
from .client import ServeApiError, ServeClient
from .progress import ProgressLog, ProgressSink, stage_of
from .runner import run_job
from .scheduler import QuotaError, RateLimitError, Scheduler, TenantQuota
from .server import ServeServer
from .store import JobRecord, JobStore

__all__ = [
    "JobSpec",
    "SpecError",
    "JobRecord",
    "JobStore",
    "ProgressLog",
    "ProgressSink",
    "stage_of",
    "run_job",
    "Scheduler",
    "TenantQuota",
    "QuotaError",
    "RateLimitError",
    "ServeServer",
    "ServeClient",
    "ServeApiError",
]
