"""repro.drc — rule-based static design-rule checking (lint).

A DRC sweep collects *every* violation of a registry of severity-tagged
rules — netlist connectivity (``NET-*``), clocking (``CLK-*``),
placement legality (``PLC-*``), routing legality (``RTE-*``), and
component-database integrity (``DB-*``) — instead of raising on the
first, then reports as an aligned table, JSON, or SARIF 2.1 for CI.

Entry points: :func:`run_drc` for one sweep, :class:`WaiverSet` for
reviewed exceptions (the checker core in :mod:`repro.reporting`, shared
with :mod:`repro.lint`), ``python -m repro drc`` on the command line, and
the ``drc=`` gates of :class:`repro.rapidwright.PreImplementedFlow` and
:class:`repro.eco.EcoEngine` (both :func:`drc_gate`).
:meth:`repro.netlist.Design.validate` is a thin adapter over the fatal
subset of these rules.
"""

from . import rules_builtin  # noqa: F401  (registers the built-in rules)
from ..reporting import Location, Rule, Severity, Waiver, WaiverError, WaiverSet
from .engine import (
    CATEGORIES,
    DEFAULT_MAX_FANOUT,
    DrcContext,
    DrcError,
    DrcReport,
    Violation,
    all_rules,
    drc_gate,
    rule,
    run_drc,
)

__all__ = [
    "CATEGORIES",
    "DEFAULT_MAX_FANOUT",
    "DrcContext",
    "DrcError",
    "DrcReport",
    "Rule",
    "rule",
    "all_rules",
    "run_drc",
    "drc_gate",
    "Location",
    "Severity",
    "Violation",
    "Waiver",
    "WaiverError",
    "WaiverSet",
]
