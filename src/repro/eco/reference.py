"""Reference ECO: the from-scratch oracle the incremental engine answers to.

:func:`eco_reference` performs the same edit as
:class:`~repro.eco.engine.EcoEngine` but with **zero incremental
state**: it deep-copies the design through the checkpoint codec, applies
the delta via the shared :func:`~repro.eco.delta.apply_delta`, rips the
same :func:`~repro.eco.delta.affected_nets` scope, then re-derives
everything downstream from first principles — a *fresh* PathFinder run
over the whole design (it routes exactly the ripped set,
because routing only ever touches unrouted unlocked connections), the
frozen :func:`~repro.timing.analyze_reference` STA (full graph rebuild,
no memo, no repropagation windows), and a fresh DRC sweep.

What the oracle checks, therefore, is every piece of incremental
machinery at once: rip-up bookkeeping, windowed rerouting against a
warm congestion state, cone-limited timing repropagation, delay-memo
invalidation, and session-shared DRC.  The edit itself (including the
rip-up scope) is shared code on purpose — see DESIGN.md ("oracle
equivalence contract") for why re-deriving *placements* is excluded.

The property harness (``tests/test_property_eco.py``) asserts the two
engines bit-identical on routes, placements, timing reports and DRC
findings for random edit sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fabric.device import Device
from ..fabric.interconnect import RoutingGraph
from ..netlist.checkpoint import design_from_dict, design_to_dict
from ..netlist.design import Design
from ..reporting import check_mode
from ..route.pathfinder import RouteResult, Router
from ..timing.delays import DEFAULT_DELAYS, DelayModel
from ..timing.sta import TimingReport, analyze_reference
from .delta import DesignDelta, affected_nets, apply_delta

__all__ = ["ReferenceResult", "eco_reference", "matches_reference"]


@dataclass
class ReferenceResult:
    """Outcome of one delta replayed from scratch on a design copy."""

    design: Design                   # the edited copy (input is untouched)
    ripped: list[str]
    route: RouteResult
    before: TimingReport
    after: TimingReport
    drc: object | None = None


def eco_reference(
    design: Design,
    delta: DesignDelta,
    device: Device,
    *,
    graph: RoutingGraph | None = None,
    delays: DelayModel = DEFAULT_DELAYS,
    drc: str = "warn",
    database=None,
) -> ReferenceResult:
    """Replay *delta* on a deep copy of *design* with full re-analysis.

    Semantically frozen, like :func:`~repro.timing.analyze_reference`:
    the incremental engine must match its routes, placements, timing
    report and DRC findings bit-for-bit, and fail where it fails.
    *design* itself is never mutated.
    """
    check_mode("drc", drc)
    if graph is None:
        graph = RoutingGraph(device)
    copy = design_from_dict(design_to_dict(design))
    before = analyze_reference(copy, device, graph, delays)

    rec = apply_delta(copy, delta, device)
    ripped = affected_nets(copy, rec)
    for name in ripped:
        copy.nets[name].clear_routes()
    prev = copy.metadata.get("eco")
    copy.metadata["eco"] = {
        "delta": delta.name,
        "ripped": list(ripped),
        "serial": (prev or {}).get("serial", 0) + 1,
    }

    route = Router(device, graph).route(copy)
    after = analyze_reference(copy, device, graph, delays)

    from ..drc import drc_gate

    report = drc_gate(drc, copy, device, gate=f"eco:{delta.name}", graph=graph,
                      database=database, require_routed=True)

    return ReferenceResult(
        design=copy,
        ripped=list(ripped),
        route=route,
        before=before,
        after=after,
        drc=report,
    )


def _report_key(report: TimingReport) -> tuple:
    return (report.period_ps, report.clock_overhead_ps, report.clock_insertion_ps,
            report.critical_path, report.n_paths)


def _findings(report) -> list | None:
    if report is None:
        return None
    return [(v.rule_id, v.location.kind, v.location.name, v.message)
            for v in report.violations]


def matches_reference(design: Design, eco, ref: ReferenceResult) -> bool:
    """True when the incremental edit of *design* (its result *eco*)
    equals the oracle replay *ref*: the same design, the same timing
    report and the same DRC findings."""
    return (
        design_to_dict(design) == design_to_dict(ref.design)
        and _report_key(eco.after) == _report_key(ref.after)
        and _findings(eco.drc) == _findings(ref.drc)
    )
