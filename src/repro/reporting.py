"""One checker core: what :mod:`repro.drc` and :mod:`repro.lint` share.

Both rule-based checkers in this repo — DRC (design rules over
netlists, placements and routes) and lint (determinism, concurrency and
oracle-contract rules over the flow's own source) — are one machine
pointed at two subjects.  This module is that machine:

* :class:`Severity` and :class:`Location`, the vocabulary of a finding;
* :class:`Finding`, the record every output format and the waivers
  operate on; each checker subclasses it with where its findings sit;
* one rule registry of :class:`Rule` records filed by id, and
  :class:`RuleSet`, one checker's view of it — its name and categories,
  the ``@rule`` decorator and id/category selection;
* :class:`Waiver` / :class:`WaiverSet`, reviewed exceptions read from a
  TOML or JSON file;
* :class:`Report`, one report class with one renderer: counts, the
  strict gate, the aligned table, JSON and SARIF 2.1.0.

What differs between the checkers is data, never a branch here: the
finding subclass says how its location renders (table column, JSON,
SARIF physical or logical location) and how findings sort; the report
subclass names its subject, its JSON header and its finding list.

:func:`validate_sarif` is the structural contract both checkers' logs
are held to: a dependency-free check of the subset of SARIF 2.1.0 the
renderer emits.  The tests run it on both checkers' logs, and CI runs
it on the ``drc.sarif`` and ``lint.sarif`` its ``drc`` and
``lint-static`` jobs write.  A full JSON-Schema check needs
``jsonschema``, which is not a dependency; the tests add one against a
vendored schema subset only where it happens to be installed.

Nothing beyond the standard library is imported here (the table
renderer, :func:`repro.analysis.report.format_table`, loads on first
use), so ``import repro.lint`` never loads the netlist, the fabric or
numpy.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import date
from enum import IntEnum
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, ClassVar, Iterable

__all__ = [
    "SARIF_VERSION",
    "SARIF_SCHEMA",
    "Severity",
    "Location",
    "Finding",
    "Rule",
    "RuleSet",
    "Waiver",
    "WaiverError",
    "WaiverSet",
    "Report",
    "MODES",
    "check_mode",
    "validate_sarif",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: The three SARIF result levels our severities collapse onto.
SARIF_LEVELS = ("note", "warning", "error")

#: How a gate acts on its findings: not at all, report them, or fail on
#: error-or-worse (``--mode`` of both checkers, a flow's ``drc=``).
MODES = ("off", "warn", "strict")


def check_mode(checker: str, mode: str) -> str:
    """*mode* when it is one of :data:`MODES`; the one ``ValueError`` otherwise."""
    if mode not in MODES:
        raise ValueError(f"unknown {checker} mode {mode!r}; use off, warn, or strict")
    return mode


class Severity(IntEnum):
    """Finding severity, ordered least to most severe.

    ``FATAL`` marks breaches of structural invariants the rest of the
    stack assumes (the checks :meth:`repro.netlist.Design.validate`
    raises for); ``ERROR`` marks designs or sources that are sound but
    not fit to ship; ``WARNING``/``INFO`` never gate.
    """

    INFO = 10
    WARNING = 20
    ERROR = 30
    FATAL = 40

    @classmethod
    def parse(cls, value: "Severity | str") -> "Severity":
        if isinstance(value, Severity):
            return value
        try:
            return cls[str(value).upper()]
        except KeyError:
            known = ", ".join(s.name.lower() for s in cls)
            raise ValueError(f"unknown severity {value!r}; known: {known}") from None

    def __str__(self) -> str:
        return self.name.lower()

    @property
    def sarif_level(self) -> str:
        """SARIF 2.1 ``level`` for this severity."""
        if self >= Severity.ERROR:
            return "error"
        return "warning" if self is Severity.WARNING else "note"


@dataclass(frozen=True)
class Location:
    """Where a finding sits: a named object, optionally qualified.

    ``kind`` is the object class (``net``, ``cell``, ``site``, ``file``,
    ``waiver``, ...); ``name`` the object's name; ``detail`` an optional
    qualifier such as a ``(col,row)`` site, a node id or a line.  The
    string form ``kind:name[@detail]`` is what waiver ``match`` patterns
    are tested against.
    """

    kind: str
    name: str
    detail: str = ""

    def __str__(self) -> str:
        base = f"{self.kind}:{self.name}"
        return f"{base}@{self.detail}" if self.detail else base


@dataclass
class Finding:
    """One rule breach.  Each checker subclasses it with its location
    fields and says how they render:

    * ``location`` — the :class:`Location` waivers match against;
    * ``where()`` — the table's location column;
    * ``to_json()`` — the finding's JSON object;
    * ``sarif_fields(report)`` — the SARIF result's ``locations`` and
      any ``properties``;
    * ``sort_key()`` — the report order;
    * ``at(location, rule_id, severity, message)`` — a finding at a bare
      location (the expired-waiver notices).

    ``waived`` marks findings matched by an active waiver — they stay in
    the report (and in SARIF, as suppressed results) but are excluded
    from gating counts.
    """

    rule_id: str
    severity: Severity
    message: str
    waived: bool = field(default=False, kw_only=True)
    waived_reason: str = field(default="", kw_only=True)


# ---------------------------------------------------------------------------
# rule registry


@dataclass(frozen=True)
class Rule:
    """One registered rule.

    ``check(ctx, emit)`` reports each finding through ``emit``; what the
    context and ``emit`` are is the checker's business.  ``scope`` is
    ``"file"`` (a lint rule runs once per source file) or ``"project"``
    (once per sweep); a DRC sweep runs every rule once per design.
    """

    id: str
    category: str
    severity: Severity
    title: str
    check: Callable
    scope: str = "file"


#: Every registered rule of both checkers, by id; the ``@rule``
#: decorators fill it at import time.
_REGISTRY: dict[str, Rule] = {}


@dataclass(frozen=True)
class RuleSet:
    """One checker's rules: the registered rules in its categories.

    ``checker`` names the checker in error messages (``DRC``, ``lint``);
    ``categories`` are its known categories, in sweep order.
    """

    checker: str
    categories: tuple[str, ...]

    def rule(self, rule_id: str, *, category: str, severity: Severity | str,
             title: str, scope: str = "file"):
        """Register a check function as rule *rule_id*.

        ``severity`` is the rule's default; its ``emit`` may override it
        per finding (DRC escalates unrouted nets when routing is
        required, lint escalates inside oracle-paired modules).
        """
        if category not in self.categories:
            raise ValueError(f"{self.checker} rule {rule_id}: unknown category {category!r}")
        if scope not in ("file", "project"):
            raise ValueError(f"{self.checker} rule {rule_id}: unknown scope {scope!r}")

        def decorator(fn):
            if rule_id in _REGISTRY:
                raise ValueError(f"duplicate rule id {rule_id}")
            _REGISTRY[rule_id] = Rule(
                id=rule_id,
                category=category,
                severity=Severity.parse(severity),
                title=title,
                check=fn,
                scope=scope,
            )
            return fn

        return decorator

    def all(self) -> list[Rule]:
        """Every registered rule of this checker, ordered by id."""
        return [_REGISTRY[k] for k in sorted(_REGISTRY)
                if _REGISTRY[k].category in self.categories]

    def select(self, rules: Iterable[str] | None = None,
               categories: Iterable[str] | None = None) -> list[Rule]:
        """The rules a sweep runs: explicit ids (in the given order) or
        every rule, narrowed to *categories* when given."""
        known = {r.id: r for r in self.all()}
        selected = list(known.values()) if rules is None else [
            known[r] if r in known else self._missing(r, known) for r in rules
        ]
        if categories is not None:
            wanted = set(categories)
            unknown = wanted - set(self.categories)
            if unknown:
                raise ValueError(f"unknown {self.checker} categories: {sorted(unknown)}")
            selected = [r for r in selected if r.category in wanted]
        return selected

    def _missing(self, rule_id: str, known: dict[str, Rule]) -> Rule:
        raise KeyError(f"unknown {self.checker} rule {rule_id!r}; "
                       f"known: {', '.join(known)}")


# ---------------------------------------------------------------------------
# waivers


class WaiverError(ValueError):
    """Raised for malformed waiver files."""


@dataclass(frozen=True)
class Waiver:
    """One reviewed exception.

    ``rules`` are fnmatch patterns over rule ids; ``match`` is an
    fnmatch pattern tested against both the finding's location string
    (``kind:name[@detail]``) and its bare object name — a DRC net name,
    a lint finding's repo-relative path.  ``expires`` is an optional
    date after which the waiver is inert.
    """

    rules: tuple[str, ...]
    match: str = "*"
    reason: str = ""
    expires: date | None = None

    def active(self, today: date) -> bool:
        return self.expires is None or today <= self.expires

    def covers(self, finding: Finding) -> bool:
        if not any(fnmatch(finding.rule_id, pat) for pat in self.rules):
            return False
        loc = finding.location
        return fnmatch(str(loc), self.match) or fnmatch(loc.name, self.match)


@dataclass
class WaiverSet:
    """An ordered collection of waivers loaded from one file::

        [[waivers]]
        rules = ["NET-001", "CLK-*"]      # fnmatch patterns on rule ids
        match = "net:conv1/*"             # fnmatch on the location
        reason = "boundary net, externally driven"
        expires = "2027-01-01"            # optional ISO date; omitted = never
    """

    waivers: list[Waiver]
    source: str = "<memory>"

    @classmethod
    def load(cls, path: str | Path) -> "WaiverSet":
        """Load a waiver file; TOML when the suffix is ``.toml``, else JSON."""
        path = Path(path)
        try:
            if path.suffix == ".toml":
                data = _load_toml(path.read_text())
            else:
                data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise WaiverError(f"cannot read waiver file {path}: {exc}") from exc
        return cls.from_dict(data, source=str(path))

    @classmethod
    def from_dict(cls, data: dict, source: str = "<memory>") -> "WaiverSet":
        if not isinstance(data, dict) or "waivers" not in data:
            raise WaiverError(f"{source}: waiver file must have a top-level 'waivers' list")
        waivers: list[Waiver] = []
        for i, entry in enumerate(data["waivers"]):
            if not isinstance(entry, dict) or not entry.get("rules"):
                raise WaiverError(f"{source}: waiver #{i} needs a non-empty 'rules' list")
            rules = entry["rules"]
            if isinstance(rules, str):
                rules = [rules]
            expires = entry.get("expires")
            if isinstance(expires, str):
                try:
                    expires = date.fromisoformat(expires)
                except ValueError as exc:
                    raise WaiverError(
                        f"{source}: waiver #{i} has bad expires {entry['expires']!r}"
                    ) from exc
            waivers.append(
                Waiver(
                    rules=tuple(str(r) for r in rules),
                    match=str(entry.get("match", "*")),
                    reason=str(entry.get("reason", "")),
                    expires=expires,
                )
            )
        return cls(waivers=waivers, source=source)


def _load_toml(text: str) -> dict:
    """*text* parsed by :mod:`tomllib` (Python 3.11+), or else by
    :func:`_waiver_toml`."""
    try:
        import tomllib
    except ImportError:
        return _waiver_toml(text)
    return tomllib.loads(text)


# The subset's patterns, compiled where they are used (``re`` caches them):
# every CLI start imports this module, and few read a TOML waiver file.
_TOML_BLANK = r"\s*(?:#.*)?"
_TOML_HEADER = r"\s*\[\[\s*waivers\s*\]\]\s*(?:#.*)?"
_TOML_KEY = r"\s*([A-Za-z0-9_-]+)\s*="
_TOML_OPEN, _TOML_COMMA, _TOML_CLOSE = r"\s*\[", r"\s*,", r"\s*\]"
_TOML_SCALAR = r"""(?x)\s*(?:
    "((?:[^"\\\n]|\\.)*)"         # basic string
  | '([^'\n]*)'                   # literal string
  | (\d{4}-\d{2}-\d{2})(?![\w:.])  # local date
)"""


def _waiver_toml(text: str) -> dict:
    """The TOML subset a waiver file uses, read as :func:`tomllib.loads`
    reads it: ``[[waivers]]`` tables of ``key = value`` lines whose value
    is a string, a date or a one-line array of them, and comments.
    Anything else raises :class:`ValueError`."""
    top: dict = {}
    tables: list[dict] = []
    table = top
    for number, line in enumerate(text.splitlines(), 1):
        try:
            if re.fullmatch(_TOML_HEADER, line):
                if "waivers" in top:  # a top-level key of the table array's name
                    raise ValueError
                table = {}
                tables.append(table)
            elif not re.fullmatch(_TOML_BLANK, line):
                key = re.match(_TOML_KEY, line)
                if key is None or key[1] in table:
                    raise ValueError
                table[key[1]], end = _toml_value(line, key.end())
                if not re.compile(_TOML_BLANK).fullmatch(line, end):
                    raise ValueError
        except ValueError:
            raise ValueError(f"line {number} is outside the waiver TOML subset: "
                             f"{line.strip()!r}") from None
    if tables:
        top["waivers"] = tables
    return top


def _toml_value(line: str, pos: int) -> tuple:
    """The value starting at *pos* of *line*, and where it ends."""
    bracket = re.compile(_TOML_OPEN).match(line, pos)
    if bracket is None:
        return _toml_scalar(line, pos)
    items, pos = [], bracket.end()
    while (close := re.compile(_TOML_CLOSE).match(line, pos)) is None:
        item, pos = _toml_scalar(line, pos)
        items.append(item)
        comma = re.compile(_TOML_COMMA).match(line, pos)
        if comma is not None:
            pos = comma.end()
        elif re.compile(_TOML_CLOSE).match(line, pos) is None:
            raise ValueError
    return items, close.end()


def _toml_scalar(line: str, pos: int) -> tuple:
    """The string or date starting at *pos* of *line*, and where it ends."""
    scalar = re.compile(_TOML_SCALAR).match(line, pos)
    if scalar is None:
        raise ValueError
    basic, literal, day = scalar.groups()
    if basic is not None:
        value = json.loads(f'"{basic}"')  # TOML's basic escapes are JSON's, bar \U
    elif literal is not None:
        value = literal
    else:
        value = date.fromisoformat(day)
    return value, scalar.end()


# ---------------------------------------------------------------------------
# the report


class Report:
    """Result of one sweep: every finding, waived or not.

    A checker's report is a dataclass subclass holding ``findings`` and
    ``rules_run`` (names of the rules swept) next to what names its
    subject, and supplying the data below plus :attr:`subject`,
    :attr:`scope` and :meth:`header`.
    """

    #: Names the checker in messages (``DRC``, ``lint``).
    checker: ClassVar[str]
    #: SARIF ``tool.driver.name``.
    driver: ClassVar[str]
    #: The :class:`Finding` subclass the checker reports.
    finding_type: ClassVar[type]
    #: Key of the finding list in the JSON document.
    findings_key: ClassVar[str] = "findings"
    #: ``(id, title, severity, category)`` of each rule a finding may
    #: name without a registered rule, for the SARIF driver's metadata.
    unregistered: ClassVar[tuple[tuple[str, str, Severity, str], ...]] = (
        ("WVR-001", "expired waiver", Severity.INFO, "waiver"),
    )

    @property
    def subject(self) -> str:
        """What the summary line is about (``DRC <design>``)."""
        raise NotImplementedError

    @property
    def scope(self) -> str:
        """How much was swept (``25 rules swept``)."""
        raise NotImplementedError

    def header(self) -> dict:
        """The JSON document's leading fields (SARIF run properties too)."""
        raise NotImplementedError

    # -- queries -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Unwaived finding count per severity name (all four keys)."""
        out = {str(s): 0 for s in Severity}
        for f in self.findings:
            if not f.waived:
                out[str(f.severity)] += 1
        return out

    def by_rule(self) -> dict[str, int]:
        """Unwaived finding count per rule id (only rules that fired)."""
        out: dict[str, int] = {}
        for f in self.findings:
            if not f.waived:
                out[f.rule_id] = out.get(f.rule_id, 0) + 1
        return out

    def failing(self, threshold: Severity = Severity.ERROR) -> list:
        """Unwaived findings at or above *threshold*."""
        return [f for f in self.findings if not f.waived and f.severity >= threshold]

    def is_clean(self, threshold: Severity = Severity.ERROR) -> bool:
        """True when nothing unwaived reaches *threshold* (the strict gate)."""
        return not self.failing(threshold)

    @property
    def n_waived(self) -> int:
        return sum(1 for f in self.findings if f.waived)

    def exit_code(self, mode: str = "strict") -> int:
        """Process exit code for CI: 0 clean/warn-mode, 2 on a failed gate."""
        if check_mode(self.checker, mode) == "strict" and not self.is_clean():
            return 2
        return 0

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{n} {name}" for name, n in counts.items() if n]
        body = ", ".join(parts) if parts else "clean"
        waived = f" ({self.n_waived} waived)" if self.n_waived else ""
        return f"{self.subject}: {body}{waived} [{self.scope}]"

    # -- closing a sweep --------------------------------------------------

    def settle(self, waivers: WaiverSet | None = None, today: date | None = None) -> None:
        """Apply *waivers*, then put the findings in report order.

        A finding an active waiver covers is marked waived.  An expired
        waiver is inert and adds a ``WVR-001`` info notice instead, so a
        stale exception cannot linger silently.  ``today`` is injectable
        for tests; it defaults to the current date.
        """
        if waivers is not None:
            today = today or date.today()
            notices = []
            for waiver in waivers.waivers:
                if not waiver.active(today):
                    notices.append(self.finding_type.at(
                        Location("waiver", waivers.source, str(waiver.expires)),
                        "WVR-001",
                        Severity.INFO,
                        f"waiver for {', '.join(waiver.rules)} (match "
                        f"{waiver.match!r}) expired {waiver.expires}; it no "
                        "longer suppresses violations",
                    ))
                    continue
                for finding in self.findings:
                    if not finding.waived and waiver.covers(finding):
                        finding.waived = True
                        finding.waived_reason = waiver.reason or "waived"
            self.findings.extend(notices)
        self.findings.sort(key=self.finding_type.sort_key)

    # -- output formats ---------------------------------------------------

    def table(self) -> str:
        """Aligned ASCII table of every finding (waived ones marked)."""
        if not self.findings:
            return f"{self.subject}: clean ({self.scope})"
        from .analysis.report import format_table

        rows = [
            [f.rule_id, str(f.severity) + (" (waived)" if f.waived else ""),
             f.where(), f.message]
            for f in self.findings
        ]
        return format_table(["rule", "severity", "location", "message"], rows,
                            title=self.summary())

    def to_json(self) -> dict:
        """Machine-readable report (the ``--json`` CLI output)."""
        return {
            **self.header(),
            "rules_run": list(self.rules_run),
            "counts": self.counts(),
            "by_rule": self.by_rule(),
            "n_waived": self.n_waived,
            "clean": self.is_clean(),
            self.findings_key: [f.to_json() for f in self.findings],
        }

    def to_sarif(self) -> dict:
        """SARIF 2.1.0 log: one run, a driver with metadata for every rule
        swept (and any unregistered rule a finding names), one result per
        finding, waived findings as suppressed results rather than dropped."""
        swept = [_REGISTRY[k] for k in sorted(set(self.rules_run)) if k in _REGISTRY]
        rules = [_sarif_rule(r.id, r.title, r.severity, r.category) for r in swept]
        present = {f.rule_id for f in self.findings}
        rules += [_sarif_rule(*meta) for meta in self.unregistered if meta[0] in present]
        rule_index = {r["id"]: i for i, r in enumerate(rules)}

        results = []
        for f in self.findings:
            result = {
                "ruleId": f.rule_id,
                "level": f.severity.sarif_level,
                "message": {"text": f.message},
                **f.sarif_fields(self),
            }
            if f.waived:
                result["suppressions"] = [
                    {"kind": "external", "status": "accepted",
                     "justification": f.waived_reason}
                ]
            result["ruleIndex"] = rule_index.get(f.rule_id, -1)
            results.append(result)

        properties = {_camel(k): v for k, v in self.header().items()}
        properties["rulesRun"] = list(self.rules_run)
        run = {
            "tool": {
                "driver": {
                    "name": self.driver,
                    "informationUri": "https://example.invalid/repro",
                    "rules": rules,
                }
            },
            "results": results,
            "properties": properties,
        }
        return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [run]}


def _sarif_rule(rule_id: str, title: str, severity: Severity, category: str) -> dict:
    """Rule metadata entry for the driver's ``rules`` array."""
    return {
        "id": rule_id,
        "name": title.title().replace(" ", "").replace("-", ""),
        "shortDescription": {"text": title},
        "defaultConfiguration": {"level": severity.sarif_level},
        "properties": {"category": category},
    }


def _camel(key: str) -> str:
    """``files_scanned`` -> ``filesScanned`` (SARIF property naming)."""
    head, *rest = key.split("_")
    return head + "".join(word.title() for word in rest)


def validate_sarif(doc: dict) -> None:
    """Assert *doc* is structurally valid against the subset of SARIF
    2.1.0 this repo emits; raises :class:`ValueError` with the first
    problem found.  Deliberately dependency-free: no JSON-Schema
    library is needed to run it.
    """

    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(f"invalid SARIF: {msg}")

    need(isinstance(doc, dict), "log must be an object")
    need(doc.get("version") == SARIF_VERSION, f"version must be {SARIF_VERSION!r}")
    need(isinstance(doc.get("$schema"), str), "$schema must be a string")
    runs = doc.get("runs")
    need(isinstance(runs, list) and runs, "runs must be a non-empty array")
    for run in runs:
        need(isinstance(run, dict), "run must be an object")
        driver = run.get("tool", {}).get("driver", {})
        need(isinstance(driver.get("name"), str) and driver["name"],
             "tool.driver.name must be a non-empty string")
        rules = driver.get("rules", [])
        need(isinstance(rules, list), "driver.rules must be an array")
        seen_ids = []
        for rule in rules:
            need(isinstance(rule.get("id"), str) and rule["id"],
                 "every rule needs a string id")
            need(rule["id"] not in seen_ids, f"duplicate rule id {rule['id']}")
            seen_ids.append(rule["id"])
            level = rule.get("defaultConfiguration", {}).get("level")
            need(level in SARIF_LEVELS, f"rule {rule['id']}: bad level {level!r}")
            need(isinstance(rule.get("shortDescription", {}).get("text"), str),
                 f"rule {rule['id']}: shortDescription.text must be a string")
        results = run.get("results")
        need(isinstance(results, list), "run.results must be an array")
        for result in results:
            rule_id = result.get("ruleId")
            need(isinstance(rule_id, str) and rule_id, "result needs a ruleId")
            need(result.get("level") in SARIF_LEVELS,
                 f"result {rule_id}: bad level {result.get('level')!r}")
            need(isinstance(result.get("message", {}).get("text"), str),
                 f"result {rule_id}: message.text must be a string")
            index = result.get("ruleIndex", -1)
            need(isinstance(index, int), f"result {rule_id}: ruleIndex must be int")
            if index >= 0:
                need(index < len(seen_ids) and seen_ids[index] == rule_id,
                     f"result {rule_id}: ruleIndex {index} does not match driver rules")
            for location in result.get("locations", []):
                phys = location.get("physicalLocation")
                if phys is not None:
                    art = phys.get("artifactLocation", {})
                    need(isinstance(art.get("uri"), str),
                         f"result {rule_id}: physicalLocation needs artifactLocation.uri")
                    region = phys.get("region")
                    if region is not None:
                        need(isinstance(region.get("startLine"), int)
                             and region["startLine"] >= 1,
                             f"result {rule_id}: region.startLine must be >= 1")
                for logical in location.get("logicalLocations", []):
                    need(isinstance(logical.get("name"), str),
                         f"result {rule_id}: logicalLocation needs a name")
            for suppression in result.get("suppressions", []):
                need(suppression.get("kind") in ("inSource", "external"),
                     f"result {rule_id}: bad suppression kind")
                need(suppression.get("status") in ("accepted", "underReview", "rejected"),
                     f"result {rule_id}: bad suppression status")
