"""CONC-0xx: concurrency rules.

The engine fans work out to processes, the serve tier multiplexes build
jobs over a thread pool, and both share one content-addressed component
library — the exact environment where module-level mutable state, bare
lock acquires, and predictable temp-file names turn into the races PRs 2
and 6 fixed by hand (the fork-inherited span stack; the tmp-file
collision :func:`~repro.engine.cache.write_atomic` now rules out).  These rules keep those classes of bug out of the tree.

Findings default to ``warning`` and escalate to ``error`` inside the
concurrent packages (:data:`repro.lint.engine.CONCURRENT_PACKAGES`),
whose code runs on engine workers and serve threads.
"""

from __future__ import annotations

import ast
import re

from ..reporting import Severity
from .engine import FileContext, lint_rule
from .rules_det import _dotted, _parent, _resolved

__all__ = []

#: Container constructors whose module-level instances count as shared
#: mutable state.
_CONTAINER_CALLS = frozenset({
    "list", "dict", "set", "OrderedDict", "defaultdict", "deque", "Counter",
})

#: Mutating method names on builtin containers.
_MUTATORS = frozenset({
    "append", "add", "update", "pop", "popitem", "extend", "insert",
    "remove", "discard", "clear", "setdefault", "appendleft", "popleft",
})

_LOCKISH = re.compile(r"lock|cond|mutex|_cv|sem", re.IGNORECASE)

_FORK_MARKERS = ("multiprocessing", "concurrent.futures.ProcessPoolExecutor",
                 "os.fork")

_TMP_SAFE_CALLS = frozenset({
    "mkstemp", "mkdtemp", "NamedTemporaryFile", "TemporaryFile",
    "TemporaryDirectory", "SpooledTemporaryFile",
})


def _sev(ctx: FileContext) -> Severity | None:
    return Severity.ERROR if ctx.concurrent else None


def _is_container_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        return name in _CONTAINER_CALLS
    return False


def _module_containers(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to mutable containers -> definition line."""
    out: dict[str, int] = {}
    for node in tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            target = node.target.id
        value = getattr(node, "value", None)
        if target and value is not None and _is_container_value(value) \
                and not (target.startswith("__") and target.endswith("__")):
            out[target] = node.lineno
    return out


def _lock_guarded(node: ast.AST) -> bool:
    """True when *node* sits under a ``with <lock-ish>`` statement."""
    current = _parent(node)
    while current is not None:
        if isinstance(current, ast.With):
            for item in current.items:
                dotted = _dotted(item.context_expr)
                if dotted is None and isinstance(item.context_expr, ast.Call):
                    dotted = _dotted(item.context_expr.func)
                if dotted and _LOCKISH.search(dotted):
                    return True
        current = _parent(current)
    return False


def _enclosing_function(node: ast.AST) -> ast.AST | None:
    current = _parent(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = _parent(current)
    return None


def _mutations(ctx: FileContext, names: set[str]):
    """Yield ``(name, node)`` for each mutation of *names* inside a
    function body (module-level registration at import time is
    single-threaded and exempt)."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in names:
            if _enclosing_function(node) is not None:
                yield node.func.value.id, node
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in names \
                        and _enclosing_function(node) is not None:
                    yield target.value.id, node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in names \
                        and _enclosing_function(node) is not None:
                    yield target.value.id, node


@lint_rule("CONC-001", category="concurrency", severity="warning",
           title="unlocked mutation of module-level state")
def conc_unlocked_global(ctx: FileContext, emit) -> None:
    """A module-level container mutated from function bodies is shared
    across every thread (and inherited by forked workers); without a
    ``with <lock>:`` around the mutation, concurrent access is a race.
    Registries filled once at import time are exempt (decorators run
    module-level), but runtime mutation needs a lock or a waiver
    explaining why single-threaded access is guaranteed."""
    local = set(_module_containers(ctx.tree))
    # Containers imported from another module and mutated here are the
    # same hazard (the PR-2 span-stack bug was exactly this shape).
    imported = {
        name for name, origin in ctx.from_names.items()
        if origin.startswith("repro.")
    }
    seen: set[tuple[str, int]] = set()
    for name, node in _mutations(ctx, local | imported):
        if _lock_guarded(node):
            continue
        key = (name, node.lineno)
        if key in seen:
            continue
        seen.add(key)
        kind = "module-level" if name in local else "imported module-level"
        emit(f"unlocked mutation of {kind} container {name!r}; guard with "
             "a lock or document why access is single-threaded",
             line=node.lineno, col=node.col_offset, severity=_sev(ctx))


@lint_rule("CONC-002", category="concurrency", severity="error",
           title="bare Lock.acquire outside with")
def conc_bare_acquire(ctx: FileContext, emit) -> None:
    """``lock.acquire()`` without ``with`` leaks the lock on any
    exception between acquire and release; use ``with lock:`` (or a
    try/finally that a waiver documents)."""
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"):
            continue
        receiver = _dotted(node.func.value)
        if receiver is None or not _LOCKISH.search(receiver):
            continue
        parent = _parent(node)
        if isinstance(parent, ast.withitem):
            continue
        emit(f"bare {receiver}.acquire(); use 'with {receiver}:' so the "
             "lock is released on every exit path",
             line=node.lineno, col=node.col_offset)


@lint_rule("CONC-003", category="concurrency", severity="warning",
           title="fork-unsafe module-level state")
def conc_fork_unsafe(ctx: FileContext, emit) -> None:
    """A module that spawns worker processes and also keeps module-level
    mutable containers hands every child a stale copy of that state
    (the PR-2 fork-inherited span-stack bug).  Reset such state in the
    worker initializer or key it by pid."""
    spawns = any(
        any(imp == marker or imp.startswith(marker + ".")
            for marker in _FORK_MARKERS)
        for imp in ctx.imports
    ) or any(
        isinstance(node, ast.Call) and _resolved(ctx, node.func) == "os.fork"
        for node in ast.walk(ctx.tree)
    )
    if not spawns:
        return
    for name, lineno in sorted(_module_containers(ctx.tree).items()):
        emit(f"module-level container {name!r} in a process-spawning "
             "module; forked workers inherit a stale copy — reset it in "
             "the worker initializer or key it by pid",
             line=lineno, severity=_sev(ctx))


@lint_rule("CONC-004", category="concurrency", severity="warning",
           title="predictable temp-file name")
def conc_predictable_tmp(ctx: FileContext, emit) -> None:
    """Building a temp path from a constant ``.tmp`` suffix means two
    processes (or a recovered job re-run) write the same file and
    corrupt each other mid-rename; use ``tempfile.mkstemp(dir=...)``
    next to the target and ``os.replace`` (the
    :func:`~repro.engine.cache.write_atomic` pattern)."""
    for node in ast.walk(ctx.tree):
        constant = None
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.endswith(".tmp"):
            constant = node
        if constant is None:
            continue
        # A ".tmp" suffix handed to tempfile.* is the fix, not the bug.
        current = _parent(constant)
        safe = False
        while current is not None and not safe:
            if isinstance(current, ast.Call):
                func = current.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None)
                if name in _TMP_SAFE_CALLS:
                    safe = True
            current = _parent(current)
        if not safe:
            emit("temp path built from a constant '.tmp' suffix is "
                 "predictable across processes; use tempfile.mkstemp "
                 "(same directory) + os.replace",
                 line=constant.lineno, col=constant.col_offset,
                 severity=_sev(ctx))
