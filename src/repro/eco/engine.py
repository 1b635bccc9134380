"""Incremental ECO engine: apply a delta without rebuilding the world.

The point of the pre-implemented flow is that a finished, routed design
is an asset; :class:`EcoEngine` keeps it one.  Applying a
:class:`~repro.eco.delta.DesignDelta` rips up only the nets the edit
actually invalidated (:func:`~repro.eco.delta.affected_nets`), reroutes
just those connections through the existing PathFinder machinery (the
router only touches unrouted, unlocked connections by construction),
re-times through the run's shared :class:`~repro.timing.IncrementalSta`
session (cone-limited repropagation, delay memo intact for every
untouched net), and re-gates with DRC — including the ``ECO-*`` rules
that watch for sloppy rip-up.

Every result carries an undo record; :meth:`EcoEngine.undo` reverts the
most recent delta losslessly, restoring original cell/net objects and
route-list identities.

Equivalence with a from-scratch redo of the same edit is not assumed —
it is asserted.  :func:`repro.eco.reference.eco_reference` replays any
delta via full re-analysis on a deep copy, and the property harness
(``tests/test_property_eco.py``) holds the two bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fabric.device import Device
from ..fabric.interconnect import RoutingGraph
from ..netlist.design import Design
from ..reporting import check_mode
from ..route.pathfinder import RouteResult, Router
from ..timing.delays import DEFAULT_DELAYS, DelayModel
from ..timing.incremental import IncrementalSta
from ..timing.sta import TimingReport
from .delta import (
    DesignDelta,
    EcoError,
    EcoUndo,
    affected_nets,
    apply_delta,
    restore_dict_order,
)

__all__ = ["EcoEngine", "EcoResult"]

#: Reference implementation this tier is asserted bit-identical to
#: (the oracle contract; checked by ORC lint rules).
ORACLE = "repro.eco.reference.eco_reference"


@dataclass
class EcoResult:
    """Outcome of one applied delta."""

    delta: DesignDelta
    ripped: list[str]                # nets whose routes the edit invalidated
    route: RouteResult               # incremental reroute stats
    before: TimingReport
    after: TimingReport
    drc: object | None = None        # DrcReport in warn/strict modes
    undo: EcoUndo = field(default_factory=EcoUndo)

    def summary(self) -> str:
        d_ps = self.after.period_ps - self.before.period_ps
        return (
            f"ECO {self.delta.name}: {len(self.ripped)} net(s) ripped, "
            f"{self.route.routed} rerouted in {self.route.iterations} iter(s); "
            f"period {self.before.period_ps:.0f} -> "
            f"{self.after.period_ps:.0f} ps ({d_ps:+.0f}), "
            f"fmax {self.after.fmax_mhz:.1f} MHz"
        )


class EcoEngine:
    """Applies deltas to one routed design, incrementally.

    Holds the design's live STA session (pass the flow's own session to
    inherit its warm memo) and the routing context.  ``drc`` mirrors the
    flow modes: ``"off"``, ``"warn"`` (report attached to the result),
    ``"strict"`` (a failed gate rolls the delta back and raises
    :class:`repro.drc.DrcError`).

    ``seed`` is accepted and ignored: nothing in an ECO is stochastic
    since the router lost its seed, and the only caller still passing
    one is the frozen end-to-end harness (``benchmarks/e2e``), whose
    files an ordinary PR may not edit.  It goes when the harness does.
    """

    def __init__(
        self,
        design: Design,
        device: Device,
        *,
        graph: RoutingGraph | None = None,
        delays: DelayModel = DEFAULT_DELAYS,
        seed: int = 0,
        drc: str = "warn",
        database=None,
        session: IncrementalSta | None = None,
    ) -> None:
        self.design = design
        self.device = device
        self.graph = graph if graph is not None else device.routing_graph
        self.delays = delays
        self.drc = check_mode("drc", drc)
        self.database = database
        self.session = session if session is not None else IncrementalSta(
            design, device, self.graph, delays
        )
        if self.session.design is not design:
            raise EcoError("STA session tracks a different design object")
        self.history: list[EcoResult] = []

    # -- apply ---------------------------------------------------------------

    def apply(self, delta: DesignDelta) -> EcoResult:
        """Apply *delta*, reroute the damage, re-time, re-gate.

        On any failure (delta validation, routing, timing, strict DRC)
        the design is rolled back to its pre-delta state before the
        exception propagates, so the engine's design is always the last
        good one.
        """
        before = self.session.analyze()
        cells_order = list(self.design.cells)
        nets_order = list(self.design.nets)
        try:
            rec = apply_delta(self.design, delta, self.device)  # atomic on failure
        except EcoError:
            # apply_delta restored the objects; restore iteration order too.
            restore_dict_order(self.design.cells, cells_order)
            restore_dict_order(self.design.nets, nets_order)
            raise
        # First op to run last on undo: snap dict order back to byte-identity.
        rec.undo.ops.insert(0, ("order", cells_order, nets_order))
        try:
            ripped = affected_nets(self.design, rec)
            for name in ripped:
                net = self.design.nets[name]
                if any(r is not None for r in net.routes):
                    rec.undo.ops.append(("net_routes", net, net.routes))
                net.clear_routes()
            prev = self.design.metadata.get("eco")
            rec.undo.ops.append(("metadata", "eco", prev))
            self.design.metadata["eco"] = {
                "delta": delta.name,
                "ripped": list(ripped),
                "serial": (prev or {}).get("serial", 0) + 1,
            }
            route = Router(self.device, self.graph).route(self.design)
            after = self.session.analyze()
            from ..drc import drc_gate

            report = drc_gate(self.drc, self.design, self.device, gate=f"eco:{delta.name}",
                              graph=self.graph, database=self.database,
                              require_routed=True, sta=self.session)
        except BaseException:
            rec.undo.apply(self.design)
            self.session.analyze()  # restore session coherence eagerly
            raise
        result = EcoResult(
            delta=delta,
            ripped=list(ripped),
            route=route,
            before=before,
            after=after,
            drc=report,
            undo=rec.undo,
        )
        self.history.append(result)
        return result

    # -- undo ----------------------------------------------------------------

    def undo(self) -> TimingReport:
        """Revert the most recent delta and return the restored timing."""
        if not self.history:
            raise EcoError("nothing to undo")
        result = self.history.pop()
        result.undo.apply(self.design)
        return self.session.analyze()
