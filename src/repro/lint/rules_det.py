"""DET-0xx: determinism rules.

The repo's core invariant is that every flow is a pure function of
``(design, seed)`` — the fast P&R/STA tiers are asserted bit-identical
to retained oracles, including under ``jobs > 1``.  These rules catch
the source patterns that silently break that purity: ambient RNG and
wall-clock reads, iteration over hash-ordered containers, unsorted
directory listings, and ``id()``-dependent ordering.

Findings default to ``warning`` and escalate to ``error`` inside
oracle-paired packages (:data:`repro.lint.engine.ORACLE_PACKAGES`),
where ordering leaks corrupt *results* rather than logs.  DET-001 and
DET-006 are errors everywhere: the CLI contract says every command is
deterministic under ``--seed``.
"""

from __future__ import annotations

import ast

from ..reporting import Severity
from .engine import FileContext, lint_rule

__all__ = []

#: stdlib ``random`` functions that read the ambient global generator.
_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
    "shuffle", "choice", "choices", "sample", "getrandbits", "seed",
    "betavariate", "expovariate", "triangular", "vonmisesvariate",
})

#: numpy legacy global-state RNG entry points (``np.random.<fn>``); the
#: ``Generator`` API (``default_rng``) is the sanctioned replacement.
_NP_LEGACY = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "seed", "shuffle", "permutation", "choice", "uniform",
    "normal", "standard_normal", "get_state", "set_state",
})

#: Wall-clock / entropy reads (monotonic and perf_counter are exempt:
#: they time work, they don't key or order it).
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today", "uuid.uuid4", "uuid.uuid1",
})

_LISTING_ATTRS = frozenset({"iterdir", "glob", "rglob"})
_LISTING_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})


def _parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_lint_parent", None)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolved(ctx: FileContext, node: ast.AST) -> str | None:
    """Dotted call target with its head resolved through the import map.

    ``np.random.rand`` -> ``numpy.random.rand``; a bare ``shuffle`` from
    ``from random import shuffle`` -> ``random.shuffle``.
    """
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head in ctx.from_names:
        head = ctx.from_names[head]
    elif head in ctx.module_aliases:
        head = ctx.module_aliases[head]
    return f"{head}.{rest}" if rest else head


def _is_set_expr(node: ast.AST) -> bool:
    """Set display, set comprehension, or a ``set()``/``frozenset()`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _sev(ctx: FileContext) -> Severity | None:
    """Escalate to error inside oracle-paired packages."""
    return Severity.ERROR if ctx.oracle_paired else None


@lint_rule("DET-001", category="determinism", severity="error",
           title="ambient random number generator")
def det_ambient_rng(ctx: FileContext, emit) -> None:
    """Global-state RNG (``random.*`` or numpy legacy ``np.random.*``)
    makes results depend on call order and process history; draw from a
    seeded ``repro._util.make_rng`` Generator instead."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolved(ctx, node.func)
        if target is None:
            continue
        if target.startswith("random.") and target.split(".")[1] in _RANDOM_FUNCS:
            emit(f"ambient stdlib RNG call {target}(); use a seeded "
                 "make_rng() Generator", line=node.lineno, col=node.col_offset)
        elif (target.startswith("numpy.random.")
              and target.split(".")[2] in _NP_LEGACY):
            emit(f"numpy legacy global RNG call {target}(); use a seeded "
                 "make_rng() Generator", line=node.lineno, col=node.col_offset)


@lint_rule("DET-002", category="determinism", severity="warning",
           title="wall-clock or entropy read")
def det_ambient_clock(ctx: FileContext, emit) -> None:
    """``time.time()``/``datetime.now()``/``uuid.uuid4()`` values vary
    per run; if one flows into a cache key, cost function, or result
    document, reruns stop being reproducible.  Timers should use
    ``perf_counter``/``monotonic``; anything result-bearing should be
    injectable (see ``run_drc(today=...)``)."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolved(ctx, node.func)
        if target in _CLOCK_CALLS:
            emit(f"wall-clock/entropy read {target}(); inject the value or "
                 "keep it out of results and cache keys",
                 line=node.lineno, col=node.col_offset, severity=_sev(ctx))


@lint_rule("DET-003", category="determinism", severity="warning",
           title="iteration over unordered set")
def det_set_iteration(ctx: FileContext, emit) -> None:
    """Iterating a set walks hash order — randomized across processes
    for strings.  Wrap in ``sorted(...)`` (or restructure) so downstream
    state cannot inherit the ordering."""

    def flag(node: ast.AST, how: str) -> None:
        emit(f"{how} iterates a set in hash order; wrap in sorted()",
             line=node.lineno, col=node.col_offset, severity=_sev(ctx))

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For) and _is_set_expr(node.iter):
            flag(node.iter, "for loop")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                # A set comprehension *over* a set is fine (result is a
                # set again); list/dict/generator forms leak the order.
                if not isinstance(node, ast.SetComp) and _is_set_expr(gen.iter):
                    flag(gen.iter, "comprehension")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name in ("list", "tuple", "iter", "enumerate", "join"):
                for arg in node.args:
                    if _is_set_expr(arg):
                        flag(arg, f"{name}() over a set")


@lint_rule("DET-004", category="determinism", severity="warning",
           title="unsorted directory listing")
def det_unsorted_listing(ctx: FileContext, emit) -> None:
    """``os.listdir``/``Path.glob``/``iterdir`` return entries in
    filesystem order, which differs across machines and runs; wrap the
    call in ``sorted(...)`` before iterating or hashing."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolved(ctx, node.func)
        is_listing = target in _LISTING_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_ATTRS
        )
        if not is_listing:
            continue
        parent = _parent(node)
        if (isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name)
                and parent.func.id in ("sorted", "len", "any", "all")):
            continue
        label = target or node.func.attr
        emit(f"directory listing {label}() iterated without sorted(); "
             "filesystem order is not deterministic",
             line=node.lineno, col=node.col_offset, severity=_sev(ctx))


@lint_rule("DET-005", category="determinism", severity="warning",
           title="float sum over unordered iterable")
def det_unordered_sum(ctx: FileContext, emit) -> None:
    """``sum()`` over a set adds in hash order; float addition is not
    associative, so the total can differ between runs.  Sort first, or
    use ``math.fsum`` (exact, order-independent)."""
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum" and node.args):
            continue
        arg = node.args[0]
        unordered = _is_set_expr(arg) or (
            isinstance(arg, ast.GeneratorExp)
            and any(_is_set_expr(gen.iter) for gen in arg.generators)
        )
        if unordered:
            emit("sum() over a set accumulates in hash order; sort first "
                 "or use math.fsum", line=node.lineno, col=node.col_offset,
                 severity=_sev(ctx))


@lint_rule("DET-006", category="determinism", severity="error",
           title="id()-dependent ordering")
def det_id_ordering(ctx: FileContext, emit) -> None:
    """``sorted(xs, key=id)`` (or an ``id()`` call inside a sort key)
    orders by allocation address — different every process.  Sort by a
    stable attribute instead."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        is_order_call = (
            (isinstance(node.func, ast.Name)
             and node.func.id in ("sorted", "min", "max"))
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "sort")
        )
        if not is_order_call:
            continue
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            uses_id = (isinstance(kw.value, ast.Name) and kw.value.id == "id") or any(
                isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
                for sub in ast.walk(kw.value)
            )
            if uses_id:
                emit("ordering key uses id(): allocation addresses differ "
                     "every process; key on a stable attribute",
                     line=node.lineno, col=node.col_offset)
