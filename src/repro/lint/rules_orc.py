"""ORC-0xx: oracle-contract rules.

Every fast tier this repo ships — the compiled router and annealer,
incremental STA, the ECO engine — is only trustworthy because a
retained Python oracle is asserted
bit-identical to it.  These rules make that contract *checkable*: each
fast-tier module must carry a module-level ``ORACLE = "dotted.path"``
declaration naming its reference implementation, the named oracle must
still exist, and a property test under ``tests/`` must actually
exercise the tier.

The tier list is the contract's registry; a new fast path added without
updating it here (plus an oracle and a property test) fails ORC-001 in
CI, which is the point.
"""

from __future__ import annotations

import ast

from .engine import FileContext, ProjectContext, lint_rule

__all__ = ["FAST_TIERS"]

#: Fast-tier modules bound by the oracle contract.
FAST_TIERS = (
    "repro.route.native",
    "repro.place.native",
    "repro.timing.incremental",
    "repro.eco.engine",
    "repro.netlist.codec",
    "repro.netlist.block",
    "repro.rapidwright.database",
    "repro.rapidwright.stitcher",
    "repro.rapidwright.placer",
    "repro.fabric.interconnect",
)


def _module_constant(ctx: FileContext, name: str) -> str | None:
    """Value of a module-level ``NAME = "literal"`` assignment."""
    for node in ctx.tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        if name in targets and isinstance(getattr(node, "value", None), ast.Constant) \
                and isinstance(node.value.value, str):
            return node.value.value
    return None


def _top_level_names(ctx: FileContext) -> set[str]:
    """Public module-level definitions (functions, classes, constants)."""
    names: set[str] = set()
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


def _resolve_oracle(project: ProjectContext, declared: str) -> tuple[FileContext | None, str | None]:
    """Find the scanned module a dotted oracle path points into.

    Tries the longest prefix that names a scanned module; whatever is
    left over is the attribute the oracle contract pins.
    """
    parts = declared.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        if module in project.modules:
            attr = ".".join(parts[cut:]) or None
            return project.modules[module], attr
    return None, None


@lint_rule("ORC-001", category="oracle", severity="error",
           title="fast tier must declare its oracle", scope="project")
def orc_declared(project: ProjectContext, emit) -> None:
    """Every registered fast-tier module carries ``ORACLE = "dotted.path"``
    naming the retained reference implementation it is asserted
    bit-identical to, and that path must resolve to a scanned module."""
    if not project.has_repro_src:
        return
    for tier in FAST_TIERS:
        ctx = project.modules.get(tier)
        if ctx is None:
            emit(f"fast-tier module {tier} is registered in the oracle "
                 "contract but missing from the scanned tree",
                 path=f"src/{tier.replace('.', '/')}.py")
            continue
        declared = _module_constant(ctx, "ORACLE")
        if declared is None:
            emit("fast tier lacks a module-level ORACLE = \"dotted.path\" "
                 "declaration naming its reference implementation",
                 path=ctx.relpath, line=1)
            continue
        oracle_ctx, _ = _resolve_oracle(project, declared)
        if oracle_ctx is None:
            emit(f"ORACLE names {declared!r}, which resolves to no scanned "
                 "module", path=ctx.relpath, line=1)


@lint_rule("ORC-002", category="oracle", severity="error",
           title="fast tier must be covered by a property test", scope="project")
def orc_property_coverage(project: ProjectContext, emit) -> None:
    """A fast tier nobody cross-checks is an oracle contract on paper
    only: some ``tests/test_property_*.py`` file must import the tier
    module (directly, or via a symbol the tier defines and its package
    re-exports)."""
    if not project.has_repro_src:
        return
    property_tests = [
        f for f in project.test_files
        if f.module.split(".")[-1].startswith("test_property")
    ]
    for tier in FAST_TIERS:
        ctx = project.modules.get(tier)
        if ctx is None:
            continue                      # ORC-001 already reports this
        parent_pkg = tier.rsplit(".", 1)[0]
        reexports = {f"{parent_pkg}.{name}" for name in _top_level_names(ctx)}
        covered = any(
            any(
                imp == tier or imp.startswith(tier + ".") or imp in reexports
                for imp in test.imports
            )
            for test in property_tests
        )
        if not covered:
            emit(f"no tests/test_property_*.py imports fast tier {tier} "
                 "(directly or via a package re-export); the bit-identity "
                 "contract is unexercised", path=ctx.relpath, line=1)


@lint_rule("ORC-003", category="oracle", severity="error",
           title="declared oracle must still exist", scope="project")
def orc_target_exists(project: ProjectContext, emit) -> None:
    """The attribute an ``ORACLE`` declaration pins (``...pathfinder.
    Router``) must still be defined at top level of the oracle module —
    renaming or deleting the reference implementation silently voids
    every equivalence claim built on it."""
    if not project.has_repro_src:
        return
    for tier in FAST_TIERS:
        ctx = project.modules.get(tier)
        if ctx is None:
            continue
        declared = _module_constant(ctx, "ORACLE")
        if declared is None:
            continue                      # ORC-001 already reports this
        oracle_ctx, attr = _resolve_oracle(project, declared)
        if oracle_ctx is None or attr is None:
            continue
        head = attr.split(".")[0]
        if head not in _top_level_names(oracle_ctx):
            emit(f"ORACLE {declared!r}: {oracle_ctx.module} no longer "
                 f"defines {head!r} at top level",
                 path=ctx.relpath, line=1)
