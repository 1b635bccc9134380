"""The DRC engine: a registry of severity-tagged rules swept over a design.

Unlike :meth:`repro.netlist.Design.validate` — which this engine now
backs — a DRC sweep *collects every violation* instead of raising on the
first, producing a machine-readable report fit for CI gates (table,
JSON, SARIF 2.1).

Rules are small generator functions registered with the :func:`rule`
decorator; each has a stable id (``NET-001``, ``PLC-003``, ...), a
category, and a default severity.  Categories gate on available inputs:
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
from typing import Callable, Iterable

from ..netlist.design import DesignError
from ..obs.span import incr, set_gauge, span
from .violation import Location, Severity, Violation
from .waivers import WaiverSet

__all__ = [
    "Rule",
    "rule",
    "all_rules",
    "rules_in",
    "DrcContext",
    "DrcReport",
    "DrcError",
    "run_drc",
    "CATEGORIES",
]

#: Known rule categories, in sweep order.
CATEGORIES = ("netlist", "clock", "placement", "routing", "database", "eco")

#: Default ceiling for the NET-006 fanout rule (stock designs peak ~5).
DEFAULT_MAX_FANOUT = 64


@dataclass(frozen=True)
class Rule:
    """One registered design rule."""

    id: str
    category: str
    severity: Severity
    title: str
    check: Callable[["DrcContext", Callable], None]

    def run(self, ctx: "DrcContext") -> list[Violation]:
        found: list[Violation] = []

        def emit(kind: str, name: str, message: str, *, detail: str = "",
                 severity: Severity | None = None) -> None:
            found.append(
                Violation(
                    rule_id=self.id,
                    severity=self.severity if severity is None else severity,
                    message=message,
                    location=Location(kind, str(name), detail),
                    design=ctx.design.name,
                )
            )

        self.check(ctx, emit)
        return found


_REGISTRY: dict[str, Rule] = {}


def rule(rule_id: str, *, category: str, severity: Severity | str, title: str):
    """Register a check function as rule *rule_id*.

    The decorated function receives ``(ctx, emit)`` and reports each
    violation through ``emit(kind, name, message, detail=..., severity=...)``;
    ``severity`` overrides the rule default per violation (RTE-001 uses
    this to escalate unrouted nets only when routing is required).
    """
    if category not in CATEGORIES:
        raise ValueError(f"rule {rule_id}: unknown category {category!r}")

    def decorator(fn):
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id}")
        _REGISTRY[rule_id] = Rule(
            id=rule_id,
            category=category,
            severity=Severity.parse(severity),
            title=title,
            check=fn,
        )
        return fn

    return decorator


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def rules_in(*categories: str) -> list[Rule]:
    """Registered rules of the given categories, ordered by id."""
    return [r for r in all_rules() if r.category in categories]


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
            from ..fabric.interconnect import RoutingGraph

            self._graph = RoutingGraph(self.device)
        return self._graph


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
class DrcReport:
    """Result of one DRC sweep: every violation, waived or not."""

    design: str
    violations: list[Violation] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)
    gate: str = ""

    # -- queries -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Unwaived violation count per severity name (all four keys)."""
        out = {str(s): 0 for s in Severity}
        for v in self.violations:
            if not v.waived:
                out[str(v.severity)] += 1
        return out

    def by_rule(self) -> dict[str, int]:
        """Unwaived violation count per rule id (only rules that fired)."""
        out: dict[str, int] = {}
        for v in self.violations:
            if not v.waived:
                out[v.rule_id] = out.get(v.rule_id, 0) + 1
        return out

    def failing(self, threshold: Severity = Severity.ERROR) -> list[Violation]:
        """Unwaived violations at or above *threshold*."""
        return [v for v in self.violations if not v.waived and v.severity >= threshold]

    def is_clean(self, threshold: Severity = Severity.ERROR) -> bool:
        """True when nothing unwaived reaches *threshold* (the strict gate)."""
        return not self.failing(threshold)

    @property
    def n_waived(self) -> int:
        return sum(1 for v in self.violations if v.waived)

    def exit_code(self, mode: str = "strict") -> int:
        """Process exit code for CI: 0 clean/warn-mode, 2 on a failed gate."""
        if mode not in ("off", "warn", "strict"):
            raise ValueError(f"unknown DRC mode {mode!r}; use off, warn, or strict")
        if mode == "strict" and not self.is_clean():
            return 2
        return 0

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{n} {name}" for name, n in counts.items() if n]
        body = ", ".join(parts) if parts else "clean"
        waived = f" ({self.n_waived} waived)" if self.n_waived else ""
        return (
            f"DRC {self.design}: {body}{waived} "
            f"[{len(self.rules_run)} rules swept]"
        )

    # -- output formats ---------------------------------------------------

    def table(self) -> str:
        from .report import violation_table

        return violation_table(self)

    def to_json(self) -> dict:
        from .report import report_to_json

        return report_to_json(self)

    def to_sarif(self) -> dict:
        from .report import report_to_sarif

        return report_to_sarif(self)


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
        A :class:`~repro.drc.waivers.WaiverSet`; matching violations are
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

    selected = list(all_rules()) if rules is None else [
        _REGISTRY[r] if r in _REGISTRY else _missing(r) for r in rules
    ]
    if categories is not None:
        wanted = set(categories)
        unknown = wanted - set(CATEGORIES)
        if unknown:
            raise ValueError(f"unknown DRC categories: {sorted(unknown)}")
        selected = [r for r in selected if r.category in wanted]
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
            found = r.run(ctx)
            if found:
                incr(f"drc.violations.{r.id}", len(found))
                report.violations.extend(found)
            report.rules_run.append(r.id)
        if waivers is not None:
            report.violations.extend(
                waivers.apply(report.violations, today=today)
            )
        report.violations.sort(
            key=lambda v: (-int(v.severity), v.rule_id, str(v.location))
        )
    counts = report.counts()
    set_gauge("drc.errors", counts["error"] + counts["fatal"])
    set_gauge("drc.warnings", counts["warning"])
    return report


def _missing(rule_id: str) -> Rule:
    known = ", ".join(sorted(_REGISTRY))
    raise KeyError(f"unknown DRC rule {rule_id!r}; known: {known}")
