"""Timing: delay models, static timing analysis, pipelining.

Repeated analyses of a mutating design should go through an
:class:`IncrementalSta` session (compiled timing graph, delay memo,
cone-limited repropagation); :func:`analyze` is the one-shot entry
point and :func:`analyze_reference` the frozen rebuild-from-scratch
oracle both are checked against.
"""

from .delays import DEFAULT_DELAYS, DelayModel
from .graph import TimingGraph
from .incremental import IncrementalSta, StaSessionStats
from .pipeline import PipelineResult, pipeline_to_target
from .sta import (
    TimingError,
    TimingReport,
    analyze,
    analyze_reference,
    clock_terms,
)

__all__ = [
    "DEFAULT_DELAYS",
    "DelayModel",
    "IncrementalSta",
    "PipelineResult",
    "StaSessionStats",
    "TimingError",
    "TimingGraph",
    "TimingReport",
    "analyze",
    "analyze_reference",
    "clock_terms",
    "pipeline_to_target",
]
