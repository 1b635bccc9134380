"""The lint engine: a registry of static-analysis rules swept over source.

This is :mod:`repro.drc`'s registry/waiver/report design pointed at the
flow's *own source* instead of at designs.  Rules are small functions
registered with the :func:`lint_rule` decorator; each has a stable id
(``DET-001``, ``CONC-002``, ``ORC-003``, ...), a category, and a default
severity.  Two scopes exist:

``file``
    The check runs once per parsed source file with a
    :class:`FileContext` (AST with parent links, import map, module
    name, and the oracle-paired / concurrent-package classification).
``project``
    The check runs once per sweep with the whole :class:`ProjectContext`
    — the oracle-contract (``ORC``) rules cross-reference fast-tier
    modules against their declared oracles and the property tests that
    cover them.

The registry, severities, waivers and the report with its renderers
are the checker core in :mod:`repro.reporting`, shared with
:mod:`repro.drc`; this module holds the lint contexts, the finding
record and the sweep.  Findings at or above ``error`` fail the strict
gate unless matched by an active waiver (lint waiver ``match`` patterns
are fnmatch-tested against repo-relative paths).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable

from ..reporting import Finding, Location, Report, Rule, RuleSet, Severity, WaiverSet

__all__ = [
    "CATEGORIES",
    "ORACLE_PACKAGES",
    "CONCURRENT_PACKAGES",
    "lint_rule",
    "all_lint_rules",
    "LintFinding",
    "FileContext",
    "ProjectContext",
    "LintReport",
    "run_lint",
    "parse_file_context",
]

#: Known rule categories, in sweep order.
CATEGORIES = ("determinism", "concurrency", "oracle")

#: Packages whose modules are paired with a bit-identity oracle: ambient
#: nondeterminism here corrupts results, not just logs, so determinism
#: findings escalate to errors.
ORACLE_PACKAGES = ("repro.route", "repro.place", "repro.timing", "repro.eco")

#: Packages whose code runs on engine workers or serve threads: unlocked
#: shared state here is a race, so concurrency findings escalate.
CONCURRENT_PACKAGES = ("repro.serve", "repro.engine", "repro.obs")


def _in_packages(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


#: The lint rules of the shared registry.  File-scope checks receive
#: ``(ctx, emit)`` with a :class:`FileContext`; project-scope checks
#: (``scope="project"``) receive ``(project, emit)``.  ``emit(message,
#: path=..., line=..., col=..., severity=...)`` reports one finding
#: (``path`` defaults to the file under check for file-scope rules;
#: ``severity`` overrides the rule default per finding — the DET/CONC
#: rules use it to escalate inside oracle-paired or concurrent modules).
LINT_RULES = RuleSet("lint", CATEGORIES)
lint_rule = LINT_RULES.rule
all_lint_rules = LINT_RULES.all


@dataclass
class LintFinding(Finding):
    """One static-analysis rule breach at one source line."""

    path: str              # repo-relative, forward slashes
    line: int = 0
    col: int = 0
    snippet: str = ""

    @classmethod
    def at(cls, location: Location, rule_id: str, severity: Severity,
           message: str) -> "LintFinding":
        return cls(rule_id, severity, message, location.name)

    @property
    def location(self) -> Location:
        """Waiver location (``file:<path>@<line>``)."""
        return Location("file", self.path, str(self.line) if self.line else "")

    def where(self) -> str:
        return f"{self.path}:{self.line}" if self.line else self.path

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule_id, self.message)

    def sarif_fields(self, report: "LintReport") -> dict:
        """A physical location: the file, and the line when known."""
        location: dict = {"physicalLocation": {"artifactLocation": {"uri": self.path}}}
        if self.line:
            region = {"startLine": self.line}
            if self.col:
                region["startColumn"] = self.col + 1
            location["physicalLocation"]["region"] = region
        return {"locations": [location]}

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


# ---------------------------------------------------------------------------
# contexts


@dataclass
class FileContext:
    """One parsed source file plus everything rules ask about it."""

    path: Path                     # absolute
    relpath: str                   # repo-relative, forward slashes
    module: str                    # dotted ("repro.route.native", "tests.test_x")
    source: str
    tree: ast.Module

    #: Absolute dotted names this file imports (``import x``/``from x
    #: import y`` both contribute ``x`` and ``x.y``; relative imports are
    #: resolved against :attr:`module`).
    imports: set[str] = field(default_factory=set)
    #: Local alias -> absolute dotted module (``import numpy as np``).
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: Local name -> absolute dotted origin (``from os import listdir``).
    from_names: dict[str, str] = field(default_factory=dict)

    @property
    def in_repro(self) -> bool:
        return self.module == "repro" or self.module.startswith("repro.")

    @property
    def oracle_paired(self) -> bool:
        return _in_packages(self.module, ORACLE_PACKAGES)

    @property
    def concurrent(self) -> bool:
        return _in_packages(self.module, CONCURRENT_PACKAGES)

    @property
    def is_test(self) -> bool:
        return self.module.startswith("tests.")


@dataclass
class ProjectContext:
    """Everything one sweep parsed, keyed for cross-referencing."""

    root: Path
    files: list[FileContext]
    modules: dict[str, FileContext] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.modules:
            self.modules = {f.module: f for f in self.files}

    @property
    def test_files(self) -> list[FileContext]:
        return [f for f in self.files if f.is_test]

    @property
    def has_repro_src(self) -> bool:
        return any(f.in_repro for f in self.files)


def _module_name(relpath: str) -> str:
    parts = relpath[:-3].split("/")          # strip ".py"
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Absolute dotted name of a level-*level* relative import in *module*."""
    base = module.split(".")
    # ``from . import x`` in a module drops the module's own last
    # component once, then one more per extra dot.
    base = base[: len(base) - level] if level <= len(base) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


def parse_file_context(path: Path, root: Path) -> FileContext:
    """Parse *path* into a :class:`FileContext` (raises ``SyntaxError``)."""
    relpath = path.resolve().relative_to(root.resolve()).as_posix()
    source = path.read_text()
    tree = ast.parse(source, filename=relpath)
    # Parent links let rules look outward (is this call wrapped in
    # sorted()? is this mutation inside a ``with lock:``?).
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node          # type: ignore[attr-defined]
    ctx = FileContext(
        path=path, relpath=relpath, module=_module_name(relpath),
        source=source, tree=tree,
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                ctx.imports.add(alias.name)
                ctx.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    ctx.module_aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            origin = (_resolve_relative(ctx.module, node.level, node.module)
                      if node.level else (node.module or ""))
            if origin:
                ctx.imports.add(origin)
            for alias in node.names:
                if alias.name == "*":
                    continue
                full = f"{origin}.{alias.name}" if origin else alias.name
                ctx.imports.add(full)
                ctx.from_names[alias.asname or alias.name] = full
    return ctx


# ---------------------------------------------------------------------------
# report


@dataclass
class LintReport(Report):
    """Result of one lint sweep: every finding, waived or not."""

    checker = "lint"
    driver = "repro-lint"
    finding_type = LintFinding
    unregistered = (
        ("LNT-001", "unparsable source file", Severity.ERROR, "engine"),
        *Report.unregistered,
    )

    root: str
    findings: list[LintFinding] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def subject(self) -> str:
        return f"lint {self.root}"

    @property
    def scope(self) -> str:
        return f"{len(self.rules_run)} rules, {self.files_scanned} files"

    def header(self) -> dict:
        return {"root": self.root, "files_scanned": self.files_scanned}


# ---------------------------------------------------------------------------
# sweep


_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


def _discover(paths: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS or part.startswith(".")
                           for part in sub.relative_to(path).parts):
                    files.append(sub)
    return sorted(set(files))


def run_lint(
    paths: Iterable[str | Path] | None = None,
    *,
    root: str | Path = ".",
    rules: Iterable[str] | None = None,
    categories: Iterable[str] | None = None,
    waivers: WaiverSet | None = None,
    today: date | None = None,
) -> LintReport:
    """Sweep source trees against the lint registry; collect every finding.

    Parameters
    ----------
    paths:
        Files or directories to scan, relative to *root* (default: the
        ``src`` and ``tests`` directories under *root* that exist, else
        *root* itself).
    rules / categories:
        Restrict the sweep to explicit rule ids or categories.
    waivers:
        A :class:`~repro.reporting.WaiverSet`; matching findings are
        marked waived and excluded from gating counts (``match``
        patterns test against repo-relative paths).
    today:
        Injectable clock for waiver expiry (tests).
    """
    root = Path(root)
    if paths is None:
        defaults = [root / "src", root / "tests"]
        scan = [p for p in defaults if p.is_dir()] or [root]
    else:
        scan = [root / p if not Path(p).is_absolute() else Path(p) for p in paths]

    selected = LINT_RULES.select(rules, categories)

    report = LintReport(root=str(root))
    contexts: list[FileContext] = []
    for path in _discover(scan):
        try:
            contexts.append(parse_file_context(path, root))
        except SyntaxError as exc:
            report.findings.append(LintFinding(
                rule_id="LNT-001",
                severity=Severity.ERROR,
                message=f"file does not parse: {exc.msg}",
                path=path.resolve().relative_to(root.resolve()).as_posix(),
                line=exc.lineno or 0,
            ))
    report.files_scanned = len(contexts)
    project = ProjectContext(root=root, files=contexts)

    def emitter(rule: Rule, default_path: str):
        def emit(message: str, *, path: str | None = None, line: int = 0,
                 col: int = 0, severity: Severity | None = None,
                 snippet: str = "") -> None:
            report.findings.append(LintFinding(
                rule_id=rule.id,
                severity=rule.severity if severity is None else severity,
                message=message,
                path=path if path is not None else default_path,
                line=line,
                col=col,
                snippet=snippet,
            ))
        return emit

    for r in selected:
        if r.scope == "project":
            r.check(project, emitter(r, ""))
        else:
            for ctx in contexts:
                if ctx.in_repro:           # DET/CONC discipline binds the
                    r.check(ctx, emitter(r, ctx.relpath))   # library, not tests
        report.rules_run.append(r.id)

    report.settle(waivers, today)
    return report
