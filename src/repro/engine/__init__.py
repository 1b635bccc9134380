"""Parallel build engine with a content-addressed checkpoint cache.

The function-optimization phase is the flow's one expensive step; this
package runs its independent component builds (and the trials of a
design-space sweep) as a cached parallel map:

* :mod:`~repro.engine.executor` — :class:`TaskSpec` and the
  :class:`Engine`: forked process pool, serial fallback, per-task
  telemetry;
* :mod:`~repro.engine.cache` — :class:`BuildCache`, canonical content
  keys, hit/miss/eviction accounting;
* :mod:`~repro.engine.workers` — picklable build/DSE entry points.
"""

from .cache import CODE_SALT, BuildCache, CacheStats, canonical_blob, content_key
from .executor import Engine, EngineReport, TaskError, TaskResult, TaskSpec

__all__ = [
    "CODE_SALT",
    "BuildCache",
    "CacheStats",
    "canonical_blob",
    "content_key",
    "Engine",
    "EngineReport",
    "TaskError",
    "TaskResult",
    "TaskSpec",
]
