"""The DRC engine: a registry of severity-tagged rules swept over a design.

Unlike :meth:`repro.netlist.Design.validate` — which this engine now
backs — a DRC sweep *collects every violation* instead of raising on the
first, producing a machine-readable report fit for CI gates (table,
JSON, SARIF 2.1).

Rules are small functions registered with the :func:`rule` decorator;
each has a stable id (``NET-001``, ``PLC-003``, ...), a category, and a
default severity.  The registry, the report and its renderers, severities
and waivers are the checker core in :mod:`repro.reporting`, shared with
:mod:`repro.lint`; this module holds the DRC context, its violation
record and the sweep.  Categories gate on available inputs:
``netlist`` and ``clock`` rules always run, ``placement`` and ``routing``
rules need a device (the routing graph is derived when not supplied),
``database`` rules need a :class:`~repro.rapidwright.ComponentDatabase`.

The sweep is observable: it opens a ``drc.run`` span and counts
violations per rule id (``drc.violations.<RULE>``) through
:mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from typing import Iterable

from ..netlist.design import DesignError
from ..obs.span import incr, set_gauge, span
from ..reporting import Finding, Location, Report, Rule, RuleSet, Severity, WaiverSet

__all__ = [
    "rule",
    "all_rules",
    "Violation",
    "DrcContext",
    "DrcReport",
    "DrcError",
    "run_drc",
    "drc_gate",
    "CATEGORIES",
]

#: Known rule categories, in sweep order.
CATEGORIES = ("netlist", "clock", "placement", "routing", "database", "eco")

#: Default ceiling for the NET-006 fanout rule (stock designs peak ~5).
DEFAULT_MAX_FANOUT = 64

#: The DRC rules of the shared registry.  A rule's check receives
#: ``(ctx, emit)`` and reports each violation through ``emit(kind, name,
#: message, detail=..., severity=...)``; ``severity`` overrides the rule
#: default per violation (RTE-001 uses this to escalate unrouted nets
#: only when routing is required).
DRC_RULES = RuleSet("DRC", CATEGORIES)
rule = DRC_RULES.rule
all_rules = DRC_RULES.all


@dataclass
class Violation(Finding):
    """One design-rule breach at one named design object."""

    location: Location
    design: str = ""

    @classmethod
    def at(cls, location: Location, rule_id: str, severity: Severity,
           message: str) -> "Violation":
        return cls(rule_id, severity, message, location)

    def where(self) -> str:
        return str(self.location)

    def sort_key(self) -> tuple:
        return (-int(self.severity), self.rule_id, str(self.location))

    def sarif_fields(self, report: "DrcReport") -> dict:
        """A logical location: netlists have no files to point at."""
        return {
            "locations": [
                {
                    "logicalLocations": [
                        {
                            "name": self.location.name,
                            "fullyQualifiedName": str(self.location),
                            "kind": self.location.kind,
                        }
                    ]
                }
            ],
            "properties": {"design": self.design or report.design},
        }

    def to_json(self) -> dict:
        out = {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
            "location": {
                "kind": self.location.kind,
                "name": self.location.name,
                "detail": self.location.detail,
            },
            "design": self.design,
            "waived": self.waived,
        }
        if self.waived:
            out["waived_reason"] = self.waived_reason
        return out

    def __str__(self) -> str:
        flag = " (waived)" if self.waived else ""
        return f"[{self.rule_id}] {self.severity}: {self.message}{flag}"


@dataclass
class DrcContext:
    """Inputs one sweep runs against.

    ``graph`` is derived from ``device`` on demand (cached), so rules may
    use ``ctx.graph`` freely whenever a device is present.
    """

    design: "object"
    device: "object | None" = None
    database: "object | None" = None
    require_routed: bool = False
    max_fanout: int = DEFAULT_MAX_FANOUT
    #: Optional :class:`repro.timing.IncrementalSta` tracking ``design``;
    #: timing-derived rules (NET-005) answer from its memo when present.
    sta: "object | None" = None
    _graph: "object | None" = field(default=None, repr=False)

    @cached_property
    def cells(self):
        """:meth:`Design.cell_table` of the design, built once per sweep
        (the vectorised placement rules all read it)."""
        return self.design.cell_table()

    @property
    def graph(self):
        if self._graph is None and self.device is not None:
            self._graph = self.device.routing_graph
        return self._graph

    def check(self, r: Rule) -> list[Violation]:
        """Run one rule against these inputs; its ``emit`` collects the
        violations it reports at named design objects."""
        found: list[Violation] = []

        def emit(kind: str, name: str, message: str, *, detail: str = "",
                 severity: Severity | None = None) -> None:
            found.append(Violation(
                r.id,
                r.severity if severity is None else severity,
                message,
                Location(kind, str(name), detail),
                design=self.design.name,
            ))

        r.check(self, emit)
        return found


class DrcError(DesignError):
    """A strict DRC gate failed; carries the full report."""

    def __init__(self, gate: str, report: "DrcReport") -> None:
        worst = report.failing(Severity.ERROR)
        head = "; ".join(str(v) for v in worst[:3])
        more = f" (+{len(worst) - 3} more)" if len(worst) > 3 else ""
        super().__init__(
            f"DRC gate {gate!r} failed with {len(worst)} violation(s): {head}{more}",
            violations=worst,
        )
        self.gate = gate
        self.report = report


@dataclass
class DrcReport(Report):
    """Result of one DRC sweep: every violation, waived or not."""

    checker = "DRC"
    driver = "repro-drc"
    finding_type = Violation
    findings_key = "violations"

    design: str
    violations: list[Violation] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)
    gate: str = ""

    @property
    def findings(self) -> list[Violation]:
        return self.violations

    @property
    def subject(self) -> str:
        return f"DRC {self.design}"

    @property
    def scope(self) -> str:
        return f"{len(self.rules_run)} rules swept"

    def header(self) -> dict:
        return {"design": self.design, "gate": self.gate}


def run_drc(
    design,
    device=None,
    *,
    graph=None,
    database=None,
    rules: Iterable[str] | None = None,
    categories: Iterable[str] | None = None,
    waivers: WaiverSet | None = None,
    require_routed: bool = False,
    max_fanout: int = DEFAULT_MAX_FANOUT,
    gate: str = "",
    today: date | None = None,
    sta=None,
) -> DrcReport:
    """Sweep *design* against the rule registry and collect every violation.

    Parameters
    ----------
    design / device / graph / database:
        The design under check plus optional context.  Placement and
        routing rules are skipped without a device; database rules
        without a database.
    rules / categories:
        Restrict the sweep to explicit rule ids or categories (both
        default to everything applicable).
    waivers:
        A :class:`~repro.reporting.WaiverSet`; matching violations are
        marked waived and excluded from gating counts.
    require_routed:
        Escalate RTE-001 (unrouted net) from info to error — set for
        post-route gates where every data net must be routed.
    gate:
        Label recorded on the report and the ``drc.run`` span (flow
        gates use ``component:<name>``, ``pre_route``, ``post_route``).
    today:
        Injectable clock for waiver expiry (tests).
    sta:
        Optional :class:`repro.timing.IncrementalSta` session tracking
        *design*; timing-derived rules reuse its memoized state (flow
        gates pass the run's shared session so repeated sweeps don't
        recompute loop analysis on an unchanged netlist).
    """
    # Ensure the built-in rules are registered even when the caller
    # imported this module directly rather than the package.
    from . import rules_builtin  # noqa: F401

    selected = DRC_RULES.select(rules, categories)
    if device is None:
        selected = [r for r in selected if r.category not in ("placement", "routing")]
    if database is None:
        selected = [r for r in selected if r.category != "database"]

    ctx = DrcContext(
        design=design,
        device=device,
        database=database,
        require_routed=require_routed,
        max_fanout=max_fanout,
        sta=sta,
        _graph=graph,
    )
    report = DrcReport(design=design.name, gate=gate)
    with span("drc.run", design=design.name, gate=gate, rules=len(selected)):
        for r in selected:
            found = ctx.check(r)
            if found:
                incr(f"drc.violations.{r.id}", len(found))
                report.violations.extend(found)
            report.rules_run.append(r.id)
        report.settle(waivers, today)
    counts = report.counts()
    set_gauge("drc.errors", counts["error"] + counts["fatal"])
    set_gauge("drc.warnings", counts["warning"])
    return report


def drc_gate(mode: str, design, device, *, gate: str, **options) -> DrcReport | None:
    """One gate of a flow or an ECO: ``None`` under *mode* ``off``, else the
    :func:`run_drc` report, which under ``strict`` must be clean or raises
    :class:`DrcError`."""
    if mode == "off":
        return None
    report = run_drc(design, device, gate=gate, **options)
    if mode == "strict" and not report.is_clean():
        raise DrcError(gate, report)
    return report
