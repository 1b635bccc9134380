"""Parallel build engine.

The function-optimization phase is the flow's one expensive step; this
package runs its independent component builds (and the trials of a
design-space sweep) as a parallel map:

* :mod:`~repro.engine.executor` — :class:`TaskSpec` and the
  :class:`Engine`: forked process pool, serial fallback, per-task
  telemetry;
* :mod:`~repro.engine.cache` — canonical content keys and atomic writes,
  which name and file the component library's entries;
* :mod:`~repro.engine.workers` — picklable build/DSE entry points.
"""

from .cache import CODE_SALT, canonical_blob, content_key
from .executor import Engine, EngineReport, TaskError, TaskResult, TaskSpec

__all__ = [
    "CODE_SALT",
    "canonical_blob",
    "content_key",
    "Engine",
    "EngineReport",
    "TaskError",
    "TaskResult",
    "TaskSpec",
]
