"""Inference latency model.

Batch-1 latency of the stream architecture: each component processes the
feature maps produced by its predecessor, so total latency is the sum of
per-component latencies at the achieved clock (Table III / Fig. 7 rows),
plus one cycle per pipeline register inserted by phys-opt (the mechanism
behind VGG's 1.02x latency in Fig. 7: "inserting pipeline elements such
as FFs on the critical path improves the timing performance, while
increasing the overall latency").

Cycle counts come from the workload and the engine parallelism recorded
by the generators: ``ceil(MACs / macs_per_cycle)`` for compute layers,
output-pixel counts for pooling, plus a pipeline-fill overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from ..cnn.graph import Component

__all__ = ["ComponentLatency", "NetworkLatency", "component_cycles", "library_parallelism",
           "network_latency"]

#: Pipeline fill + drain per component (cycles).
FILL_CYCLES = 48


@dataclass(frozen=True)
class ComponentLatency:
    """Latency of one component at a given clock."""

    name: str
    kind: str
    cycles: int
    fmax_mhz: float

    @property
    def latency_us(self) -> float:
        return self.cycles / self.fmax_mhz

    @property
    def latency_ms(self) -> float:
        return self.latency_us / 1e3


@dataclass
class NetworkLatency:
    """End-to-end inference latency breakdown."""

    components: list[ComponentLatency] = field(default_factory=list)
    pipeline_regs: int = 0
    fmax_mhz: float = 0.0

    @property
    def total_cycles(self) -> int:
        return sum(c.cycles for c in self.components) + self.pipeline_regs

    @property
    def total_us(self) -> float:
        return sum(c.latency_us for c in self.components) + (
            self.pipeline_regs / self.fmax_mhz if self.fmax_mhz else 0.0
        )

    @property
    def total_ms(self) -> float:
        return self.total_us / 1e3


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
    """``parallelism_of`` for :func:`network_latency`, read off each
    component's *database* record without building it."""
    def parallelism_of(comp: Component) -> dict:
        return database.fetch(comp.signature).metadata.get("parallelism", {"pf": 1, "pk": 1})

    return parallelism_of


def network_latency(
    components: list[Component],
    fmax_mhz: float,
    *,
    parallelism_of=None,
    pipeline_regs: int = 0,
) -> NetworkLatency:
    """Latency of the full accelerator, every component at *fmax_mhz*
    (a stitched design runs everything at its single achieved clock).

    ``parallelism_of(comp)`` returns the generator parallelism metadata.
    """
    if fmax_mhz <= 0:
        raise ValueError(f"fmax must be positive, got {fmax_mhz}")
    out = NetworkLatency(pipeline_regs=pipeline_regs, fmax_mhz=fmax_mhz)
    for comp in components:
        par = parallelism_of(comp) if parallelism_of else None
        out.components.append(
            ComponentLatency(
                name=comp.name,
                kind=comp.kind,
                cycles=component_cycles(comp, par),
                fmax_mhz=fmax_mhz,
            )
        )
    return out
