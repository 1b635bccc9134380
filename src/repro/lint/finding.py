"""The lint finding record.

A :class:`LintFinding` is one rule breach at one source location — the
unit every output format (table, JSON, SARIF) and the waiver engine
operate on.  Severities are :class:`repro.drc.violation.Severity`, so
the gate semantics ("fail on error or worse") match DRC exactly, and
the ``location`` property presents the finding in the shape
:class:`repro.drc.waivers.WaiverSet` matches against: waiver ``match``
patterns are fnmatch-tested against the repo-relative path
(``src/repro/route/native.py``) and the path-at-line string
(``file:src/repro/route/native.py@42``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..drc.violation import Location, Severity

__all__ = ["LintFinding", "Severity"]


@dataclass
class LintFinding:
    """One static-analysis rule breach at one source line.

    ``waived`` marks findings matched by an active waiver — they stay in
    the report (and in SARIF, as suppressed results) but are excluded
    from gating counts.
    """

    rule_id: str
    severity: Severity
    message: str
    path: str              # repo-relative, forward slashes
    line: int = 0
    col: int = 0
    snippet: str = ""
    waived: bool = False
    waived_reason: str = ""

    @property
    def location(self) -> Location:
        """Waiver/SARIF-compatible location (``file:<path>@<line>``)."""
        return Location("file", self.path, str(self.line) if self.line else "")

    def where(self) -> str:
        return f"{self.path}:{self.line}" if self.line else self.path

    def to_json(self) -> dict:
        out = {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "waived": self.waived,
        }
        if self.snippet:
            out["snippet"] = self.snippet
        if self.waived:
            out["waived_reason"] = self.waived_reason
        return out

    def __str__(self) -> str:
        flag = " (waived)" if self.waived else ""
        return f"[{self.rule_id}] {self.severity} {self.where()}: {self.message}{flag}"
