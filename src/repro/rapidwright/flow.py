"""The pre-implemented flow (the paper's contribution).

Two phases (paper Fig. 3):

* **Function optimization** (offline, once): every unique component
  signature the checkpoint database lacks is generated, pre-implemented
  OOC in a tight pblock with planned ports, locked, and stored there.
* **Architecture optimization** (per accelerator, automated, timed):
  component extraction from the CNN architecture definition, component
  matching against the database, Eq. 1-3 component placement,
  Algorithm-1 stitching, and final inter-component routing — the only
  "Vivado" work left, since all intra-component logic and routing is
  locked.  Optionally a phys-opt pipelining pass closes timing across
  fabric discontinuities (the VGG case, Sec. V-E).

:meth:`PreImplementedFlow.run` performs both, so one call builds an
accelerator and the offline phase is counted once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..obs.span import set_gauge, span, stage
from ..cnn.graph import DFG, Component, group_components
from ..netlist.design import Design
from ..fabric.device import Device
from ..power.model import estimate_power
from ..reporting import check_mode
from ..route.pathfinder import RouteResult, Router
from ..timing.delays import DEFAULT_DELAYS
from ..timing.incremental import IncrementalSta
from ..timing.pipeline import pipeline_to_target
from ..vivado.flow import FlowResult
from .database import ComponentDatabase
from .placer import ComponentPlacer
from .stitcher import compose, unique_components

if TYPE_CHECKING:  # annotations only: the engine loads when a build runs
    from ..engine.executor import EngineReport

__all__ = ["PreImplementedFlow"]


def _scheduler(components: list[Component]) -> Component:
    """The shared architecture's scheduler, a library component like any
    other: a memory management unit sized for the largest inter-pass
    feature map."""
    n_words = int(max(
        (math.prod(c.out_shape) for c in components if len(c.out_shape) > 0),
        default=1024,
    ))
    return Component(name="scheduler", nodes=[], kind="memctrl",
                     signature=("memctrl", n_words),
                     in_shape=(n_words,), out_shape=(n_words,))


class PreImplementedFlow:
    """End-to-end pre-implemented accelerator generation.

    Parameters
    ----------
    device:
        Target device.
    component_effort:
        Placement effort for OOC pre-implementation (high by default —
        the point of the flow is to over-optimize small components).
    seed:
        Seed for all stochastic stages.
    plan_ports:
        Strategic port planning during OOC (ablation toggle).
    drc:
        Design-rule-check gating: ``"off"`` (default, no sweeps),
        ``"warn"`` (sweep at every gate, collect reports in
        ``result.extras["drc"]``), or ``"strict"`` (additionally raise
        :class:`repro.drc.DrcError` when a gate finds error-or-worse
        violations).  Gates run on each matched component as anchored by
        the component placer (placement precedes materialization, so the
        gate fetches its own copy at the chosen anchor), on the stitched
        design pre-route, and on the routed design post-route (with
        database integrity checks).

    STA uses :data:`~repro.timing.delays.DEFAULT_DELAYS` — the model the
    library's OOC Fmax was timed under — kept as :attr:`delays` for the
    pipeliner and the edits that re-time a result (ECO, CTS).
    """

    def __init__(
        self,
        device: Device,
        *,
        component_effort: str = "high",
        seed: int = 0,
        plan_ports: bool = True,
        drc: str = "off",
    ) -> None:
        self.device = device
        self.component_effort = component_effort
        self.seed = seed
        self.plan_ports = plan_ports
        self.delays = DEFAULT_DELAYS
        self.drc = check_mode("drc", drc)
        self.graph = device.routing_graph

    # -- phase 1: function optimization (offline) --------------------------

    def _build(self, database: ComponentDatabase, components: list[Component],
               rom_weights: bool, jobs: int | None = None) -> EngineReport:
        """Pre-implement *components* into *database* on this flow's build
        options (:meth:`ComponentDatabase.build`)."""
        return database.build(
            components,
            rom_weights=rom_weights,
            effort=self.component_effort,
            seed=self.seed,
            plan_ports=self.plan_ports,
            jobs=jobs,
        )

    def build_database(
        self,
        dfg: DFG,
        *,
        granularity: str = "layer",
        rom_weights: bool = True,
    ) -> tuple[ComponentDatabase, EngineReport]:
        """Pre-implement every unique component of *dfg* into a new
        in-memory database, and build no accelerator.

        Only for a library wanted without a run: :meth:`run` fills the
        database it is handed itself.  The report is
        :meth:`ComponentDatabase.build`'s, on one worker per usable core.
        """
        database = ComponentDatabase(self.device)
        with span("flow.build_database", model=dfg.name, granularity=granularity):
            report = self._build(database, group_components(dfg, granularity), rom_weights)
        return database, report

    def _drc_gate(self, reports: list, gate: str, design: "Design", **options) -> None:
        """Run one DRC gate of this run, :func:`repro.drc.drc_gate` under
        :attr:`drc`, and keep its report in *reports* (*options*:
        ``require_routed``, ``database``, ``sta``)."""
        from ..drc import drc_gate

        report = drc_gate(self.drc, design, self.device, graph=self.graph, gate=gate, **options)
        if report is not None:
            reports.append(report)

    # -- phase 2: architecture optimization (timed) -------------------------

    def run(
        self,
        dfg: DFG,
        *,
        granularity: str = "layer",
        rom_weights: bool = True,
        database: ComponentDatabase | None = None,
        jobs: int | None = None,
        pipeline_target_mhz: float | str | None = None,
        share_components: bool = False,
    ) -> FlowResult:
        """Generate the accelerator for *dfg*: both phases, in one call.

        The instances the *database* (``None``: a new in-memory one; a
        directory-backed one answers what its library holds and files
        what is built) lacks are pre-implemented first, in one
        :meth:`ComponentDatabase.build` on this flow's options and *jobs*
        workers (``None``: one per usable core); its cost is
        ``result.extras["offline_s"]`` (the paper pays it once, offline,
        and keeps it out of the compile time).  A record already present
        is used as it is, whatever built it.

        ``pipeline_target_mhz`` enables the phys-opt pipelining pass
        (paper Sec. V-E): pass a frequency, or ``"auto"`` to target the
        slowest component's OOC Fmax — the stitched design's natural
        upper bound.

        ``share_components=True`` builds the Q-CLE-style *shared*
        architecture (paper Sec. III / Shen et al.): one physical engine
        per unique signature, time-multiplexed through a pre-implemented
        scheduler — fewer resources, one pass of latency per logical
        layer.  The scheduler is one more record, ``("memctrl",
        n_words)``, under the same rule.
        """
        with span("flow.run", flow="preimpl", model=dfg.name,
                  granularity=granularity) as run_span:
            result = self._run(dfg, granularity, rom_weights, database, jobs,
                               pipeline_target_mhz, share_components)
            run_span.set(fmax_mhz=round(result.fmax_mhz, 3))
        set_gauge("flow.fmax_mhz", result.fmax_mhz)
        return result

    def _run(self, dfg, granularity, rom_weights, database, jobs, pipeline_target_mhz,
             share_components) -> FlowResult:
        if database is None:  # not ``or``: an empty database is falsy (``__len__``)
            database = ComponentDatabase(self.device)
        stages: dict[str, float] = {}
        with stage(stages, "rw:component_extraction"):
            components = group_components(dfg, granularity)
        instances, hub, arch = components, None, "preimpl"
        if share_components:
            # One physical engine per signature, time-multiplexed through
            # the scheduler: one more library record.
            hub = _scheduler(components)
            instances, arch = [*unique_components(components), hub], "shared"

        # Function optimization for what the database lacks, and only that:
        # a record already there is used as it is, whatever built it.
        missing = [comp for comp in instances if not database.has(comp.signature)]
        offline_s = self._build(database, missing, rom_weights, jobs).run_s if missing else 0.0

        with stage(stages, "rw:component_matching"):
            # Placement reads only footprints; compose() materializes each
            # component once, at the anchor chosen below.
            items = [(comp.name, database.footprint(comp.signature)) for comp in instances]

        with stage(stages, "rw:component_placement"):
            placer = ComponentPlacer(self.device)
            if hub is None:
                connections = [(i - 1, i) for i in range(1, len(items))]
            else:  # star topology: every engine talks to the scheduler
                connections = [(i, len(items) - 1) for i in range(len(items) - 1)]
            placement = placer.place(items, connections)

        drc_reports = []
        if self.drc != "off":
            anchors = placement.anchors
            for comp in instances:
                anchored = database.fetch(
                    comp.signature, anchors[comp.name], device=self.device
                )
                self._drc_gate(drc_reports, f"component:{comp.name}", anchored,
                               require_routed=True)

        with stage(stages, "rw:composition"):
            stitch = compose(
                f"{dfg.name}_{granularity}_{arch}",
                components,
                database,
                self.device,
                placement.anchors,
                hub=hub,
            )
            top = stitch.top

        # One STA session serves the whole run — DRC gates, the pipelining
        # pass, and the final report all share its compiled graph and
        # memo, so each design state is analyzed at most once.
        sta = IncrementalSta(top, self.device, self.graph, self.delays)

        self._drc_gate(drc_reports, "pre_route", top, sta=sta)

        # One router for both passes: it charges the placed blocks' wires
        # once, and the reroute after pipelining recounts only the glue.
        router = Router(self.device, self.graph)
        with stage(stages, "vivado:inter_route"):
            route = router.route(top)

        extras: dict = {
            "offline_s": offline_s,
            "stitch": stitch,
            "placement": placement,
            "database": database,
        }
        if pipeline_target_mhz == "auto":
            pipeline_target_mhz = stitch.slowest_component_mhz * 0.98
        if pipeline_target_mhz is not None:
            try:
                target_mhz = float(pipeline_target_mhz)
            except (TypeError, ValueError):
                raise ValueError(
                    "pipeline_target_mhz must be a frequency in MHz or 'auto', "
                    f"got {pipeline_target_mhz!r}"
                ) from None
            if not math.isfinite(target_mhz) or target_mhz <= 0:
                raise ValueError(
                    f"pipeline_target_mhz resolved to {target_mhz!r}; the stitched "
                    "design has no positive frequency bound (empty stitch or "
                    "degenerate component)"
                )
            pipeline_target_mhz = target_mhz
            with stage(stages, "phys_opt:pipeline"):
                target_ps = 1e6 / pipeline_target_mhz - self.delays.clock_overhead_ps
                pipe = pipeline_to_target(
                    top, self.device, target_ps, graph=self.graph,
                    delays=self.delays, session=sta,
                )
                extras["pipeline"] = pipe
            if pipe.inserted:
                # Only the split nets are unrouted; report both passes.
                with stage(stages, "vivado:reroute"):
                    reroute = router.route(top)
                route = RouteResult(
                    routed=route.routed + reroute.routed,
                    failed=reroute.failed,
                    iterations=route.iterations + reroute.iterations,
                    wirelength=route.wirelength + reroute.wirelength,
                    overused_nodes=reroute.overused_nodes,
                    preexisting=route.preexisting,
                )

        self._drc_gate(drc_reports, "post_route", top, require_routed=True,
                       database=database, sta=sta)
        if self.drc != "off":
            extras["drc"] = drc_reports

        with stage(stages, "timing"):
            timing = sta.analyze()
        with stage(stages, "power"):
            power = estimate_power(top, self.device, timing.fmax_mhz, self.graph)

        top.metadata["fmax_mhz"] = timing.fmax_mhz
        return FlowResult(
            design=top,
            stages=stages,
            timing=timing,
            power=power,
            route=route,
            extras=extras,
        )
