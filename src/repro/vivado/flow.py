"""The monolithic vendor-tool flow ("VivadoFlow").

Baseline the paper compares against: synthesize the whole network into
one flat netlist, then ``opt_design -> place_design -> phys_opt_design ->
route_design`` on the full device, followed by STA and power estimation.
Compile time is measured for real (the productivity experiments report
wall-clock of these stages), and QoR suffers on large designs because
the bounded-effort engines optimize a much bigger problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.span import span, stage
from ..cnn.graph import DFG
from ..fabric.device import Device
from ..netlist.design import Design
from ..place.placer import PlacementResult, place_design
from ..power.model import PowerReport, estimate_power
from ..route.pathfinder import RouteResult, Router
from ..synth.network import NetworkSynthesis, synthesize_network
from ..timing.delays import DEFAULT_DELAYS
from ..timing.incremental import IncrementalSta
from ..timing.sta import TimingReport
from .opt import OptStats, opt_design

__all__ = ["FlowResult", "VivadoFlow"]


@dataclass
class FlowResult:
    """Outcome of one implementation run (either flow)."""

    design: Design
    #: Wall time per top-level stage, in run order (the spans directly
    #: under ``flow.run``, less the DRC sweeps).
    stages: dict[str, float]
    timing: TimingReport
    power: PowerReport
    place: PlacementResult | None = None
    route: RouteResult | None = None
    opt: OptStats | None = None
    extras: dict = field(default_factory=dict)

    @property
    def fmax_mhz(self) -> float:
        return self.timing.fmax_mhz

    @property
    def runtime_s(self) -> float:
        return sum(self.stages.values())

    def utilization(self, device: Device) -> dict[str, float]:
        usage = self.design.resource_usage()
        keys = ("LUT", "FF", "DSP48E2", "RAMB36")
        return device.utilization({k: usage.get(k, 0) for k in keys})

    def summary(self) -> str:
        return (
            f"{self.design.name}: {self.fmax_mhz:.1f} MHz, "
            f"{self.runtime_s:.1f} s compile"
        )


class VivadoFlow:
    """Monolithic implementation flow on a full device.

    Parameters
    ----------
    device:
        Target device.
    effort:
        Placement effort preset name (see :data:`repro.place.EFFORTS`).
    seed:
        Seed for every stochastic stage.

    STA uses :data:`~repro.timing.delays.DEFAULT_DELAYS`, kept as
    :attr:`delays` for the edits that re-time a result (ECO, CTS).
    """

    def __init__(
        self,
        device: Device,
        *,
        effort: str = "medium",
        seed: int = 0,
    ) -> None:
        self.device = device
        self.effort = effort
        self.seed = seed
        self.delays = DEFAULT_DELAYS
        self.graph = device.routing_graph

    # -- entry points ------------------------------------------------------

    def run(
        self,
        dfg: DFG,
        *,
        granularity: str = "layer",
        rom_weights: bool = True,
    ) -> FlowResult:
        """Synthesize and implement a CNN end to end."""
        with span("flow.run", flow="baseline", model=dfg.name,
                  granularity=granularity) as run_span:
            synth: dict[str, float] = {}
            with stage(synth, "synth"):
                synthesis: NetworkSynthesis = synthesize_network(
                    dfg, granularity=granularity, rom_weights=rom_weights
                )
            result = self.implement(synthesis.top)
            result.stages = synth | result.stages
            result.extras["synthesis"] = synthesis
            run_span.set(fmax_mhz=round(result.fmax_mhz, 3))
        return result

    def implement(self, design: Design) -> FlowResult:
        """Implement an already-synthesized flat design."""
        stages: dict[str, float] = {}
        with stage(stages, "opt_design"):
            opt = opt_design(design)
        with stage(stages, "place_design"):
            place = place_design(design, self.device, effort=self.effort, seed=self.seed)
        with stage(stages, "route_design"):
            route = Router(self.device, self.graph).route(design)
        with stage(stages, "timing"):
            timing = IncrementalSta(
                design, self.device, self.graph, self.delays
            ).analyze()
        with stage(stages, "power"):
            power = estimate_power(design, self.device, timing.fmax_mhz, self.graph)
        design.metadata["fmax_mhz"] = timing.fmax_mhz
        return FlowResult(
            design=design,
            stages=stages,
            timing=timing,
            power=power,
            place=place,
            route=route,
            opt=opt,
        )
