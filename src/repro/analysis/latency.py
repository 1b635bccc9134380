"""Inference latency model: one simulated batch-1 inference.

The paper's accelerators are "stream-like": components connected by
single-source, single-sink FIFO queues with memory controllers between
stages that need address generation (Sec. IV-B1, Fig. 5).
:func:`simulate_stream` runs one inference at the component level,
store-and-forward: each component consumes the *complete* feature map
of its predecessor (what the memory controllers in the stock LeNet/VGG
architectures do), so total latency is the sum of component latencies
at the achieved clock (Table III / Fig. 7 rows).

Each pipeline register inserted by phys-opt adds one cycle
(the mechanism behind VGG's 1.02x latency in Fig. 7: "inserting pipeline
elements such as FFs on the critical path improves the timing
performance, while increasing the overall latency").

Cycle counts come from the workload and the engine parallelism recorded
by the generators: ``ceil(MACs / macs_per_cycle)`` for compute layers,
output-pixel counts for pooling, plus a pipeline-fill overhead.  The
report keeps each stage's start, finish and compute cycles so the
examples can show where time goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from ..cnn.graph import Component

__all__ = ["SimulationReport", "StageTrace", "component_cycles", "library_parallelism",
           "simulate_stream"]

#: Pipeline fill + drain per component (cycles).
FILL_CYCLES = 48


def component_cycles(comp: Component, parallelism: dict | None = None) -> int:
    """Cycles for one forward pass through *comp*.

    *parallelism* is the generator metadata (``{"pf": ..., "pk": ...}``);
    when absent, a conservative serial estimate is used.
    """
    pf = (parallelism or {}).get("pf", 1)
    pk = (parallelism or {}).get("pk", 1)
    macs_per_cycle = max(1, pf * pk)
    if comp.macs > 0:
        compute = ceil(comp.macs / macs_per_cycle)
    else:
        # pooling / relu: one output pixel per cycle per parallel channel
        c, h, w = (comp.out_shape + (1, 1, 1))[:3]
        lanes = max(1, pf)
        compute = ceil(c * h * w / lanes)
    return compute + FILL_CYCLES


def library_parallelism(database):
    """``parallelism_of`` for :func:`simulate_stream`, read off each
    component's *database* record without building it."""
    def parallelism_of(comp: Component) -> dict:
        return database.fetch(comp.signature).metadata.get("parallelism", {"pf": 1, "pk": 1})

    return parallelism_of


@dataclass(frozen=True)
class StageTrace:
    """Activity of one component during the simulated inference."""

    name: str
    start_cycle: int
    finish_cycle: int
    compute_cycles: int


@dataclass
class SimulationReport:
    """Result of one simulated inference."""

    fmax_mhz: float
    stages: list[StageTrace] = field(default_factory=list)
    pipeline_regs: int = 0

    @property
    def total_cycles(self) -> int:
        return max((s.finish_cycle for s in self.stages), default=0) + self.pipeline_regs

    @property
    def total_us(self) -> float:
        return self.total_cycles / self.fmax_mhz

    @property
    def total_ms(self) -> float:
        return self.total_us / 1e3

    def summary(self) -> str:
        return (
            f"store_forward: {self.total_cycles} cycles at {self.fmax_mhz:.0f} MHz "
            f"= {self.total_us:.2f} us over {len(self.stages)} stages"
        )


def simulate_stream(
    components: list[Component],
    fmax_mhz: float,
    *,
    parallelism_of=None,
    pipeline_regs: int = 0,
) -> SimulationReport:
    """Simulate one batch-1 inference through the component chain, every
    component at *fmax_mhz* (a stitched design runs everything at its
    single achieved clock).

    ``parallelism_of(comp)`` supplies the generator parallelism metadata;
    *pipeline_regs* is the count phys-opt inserted
    (``design.metadata["pipeline_regs"]`` of a pipelined result).
    """
    if fmax_mhz <= 0:
        raise ValueError(f"fmax must be positive, got {fmax_mhz}")

    report = SimulationReport(fmax_mhz=fmax_mhz, pipeline_regs=pipeline_regs)
    start = 0
    for comp in components:
        compute = component_cycles(comp, parallelism_of(comp) if parallelism_of else None)
        report.stages.append(StageTrace(name=comp.name, start_cycle=start,
                                        finish_cycle=start + compute, compute_cycles=compute))
        start += compute
    return report
