"""Productivity accounting (paper Sec. V-D / Fig. 6).

Compares compile time between the monolithic baseline and the
pre-implemented flow.  Following the paper's methodology:

* baseline time = opt + place + phys-opt + route (the Vivado
  implementation calls);
* pre-implemented time = DCP generation with RapidWright (extraction,
  matching, component placement, composition) + the final
  inter-component routing — the offline function-optimization phase is
  excluded ("it is performed exactly once, and the saved netlists may
  serve in multiple designs").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: keeps the P&R back end out of `repro.analysis`
    from ..vivado.flow import FlowResult

__all__ = ["ProductivityReport", "compare_productivity"]

#: Stages counted as "RapidWright stitching" in the pre-implemented flow.
RW_STAGES = (
    "rw:component_extraction",
    "rw:component_matching",
    "rw:component_placement",
    "rw:composition",
)
#: Stages counted as final vendor routing.
ROUTE_STAGES = ("vivado:inter_route", "vivado:reroute", "phys_opt:pipeline")
#: Baseline implementation stages (synthesis is excluded on both sides).
BASELINE_STAGES = ("opt_design", "place_design", "route_design")


@dataclass(frozen=True)
class ProductivityReport:
    """Compile-time comparison between the two flows."""

    baseline_s: float
    preimpl_s: float
    rw_s: float
    route_s: float
    offline_s: float

    @property
    def gain(self) -> float:
        """Fractional productivity improvement (paper: 69 % LeNet, 61 % VGG)."""
        if self.baseline_s == 0:
            return 0.0
        return 1.0 - self.preimpl_s / self.baseline_s

    @property
    def stitch_fraction(self) -> float:
        """Share of the pre-implemented flow spent in RapidWright
        (paper: 5 % LeNet, 9 % VGG)."""
        return self.rw_s / self.preimpl_s if self.preimpl_s else 0.0

    @property
    def route_fraction(self) -> float:
        return self.route_s / self.preimpl_s if self.preimpl_s else 0.0

    def summary(self) -> str:
        return (
            f"baseline {self.baseline_s:.2f} s vs pre-implemented "
            f"{self.preimpl_s:.2f} s: {100 * self.gain:.0f}% productivity gain "
            f"(stitching {100 * self.stitch_fraction:.0f}%, "
            f"inter-route {100 * self.route_fraction:.0f}% of flow; "
            f"offline component build {self.offline_s:.2f} s, paid once)"
        )


def compare_productivity(baseline: FlowResult, preimpl: FlowResult) -> ProductivityReport:
    """Build a report from two flow results."""
    base_s = sum(baseline.stages.get(s, 0.0) for s in BASELINE_STAGES)
    rw_s = sum(preimpl.stages.get(s, 0.0) for s in RW_STAGES)
    route_s = sum(preimpl.stages.get(s, 0.0) for s in ROUTE_STAGES)
    return ProductivityReport(
        baseline_s=base_s,
        preimpl_s=rw_s + route_s,
        rw_s=rw_s,
        route_s=route_s,
        offline_s=float(preimpl.extras.get("offline_s", 0.0)),
    )
