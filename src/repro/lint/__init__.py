"""repro.lint — determinism & concurrency static analysis of the flow's
own source.

Where :mod:`repro.drc` checks *designs*, this package checks *the
codebase*: an AST-based rule engine with the same registry/waiver/SARIF
design, aimed at the invariants every fast tier rests on — results are
a pure function of ``(design, seed)``, bit-identical to a retained
oracle, even under ``jobs > 1``.

Three rule families with stable ids:

``DET-0xx`` (determinism)
    Ambient RNG and wall-clock reads, hash-ordered set iteration,
    unsorted directory listings, float sums over unordered iterables,
    ``id()``-dependent ordering.
``CONC-0xx`` (concurrency)
    Unlocked mutation of module-level shared state, bare
    ``Lock.acquire()`` outside ``with``, fork-unsafe globals in
    process-spawning modules, predictable temp-file names.
``ORC-0xx`` (oracle contract)
    Every registered fast tier declares its reference oracle
    (``ORACLE = "dotted.path"``), the oracle still exists, and a
    property test under ``tests/`` exercises the tier.

Entry points: :func:`run_lint` for one sweep, ``python -m repro lint``
on the command line (table/JSON/SARIF output, TOML waivers — the checker
core in :mod:`repro.reporting`, shared with DRC), and the opt-in runtime
sanitizer in :mod:`repro.sanitize` (``REPRO_SANITIZE=1``) that enforces
the DET discipline dynamically while the test suite runs.
"""

from ..reporting import Rule, Severity, Waiver, WaiverError, WaiverSet
from . import rules_conc, rules_det  # noqa: F401  (registers the DET and CONC rules)
from .engine import (
    CATEGORIES,
    CONCURRENT_PACKAGES,
    ORACLE_PACKAGES,
    FileContext,
    LintFinding,
    LintReport,
    ProjectContext,
    all_lint_rules,
    lint_rule,
    parse_file_context,
    run_lint,
)
from .rules_orc import FAST_TIERS

__all__ = [
    "CATEGORIES",
    "CONCURRENT_PACKAGES",
    "ORACLE_PACKAGES",
    "FAST_TIERS",
    "FileContext",
    "LintFinding",
    "LintReport",
    "ProjectContext",
    "Rule",
    "Severity",
    "Waiver",
    "WaiverError",
    "WaiverSet",
    "all_lint_rules",
    "lint_rule",
    "parse_file_context",
    "run_lint",
]
