"""Opt-in runtime sanitizer: dynamic enforcement of the lint discipline.

:mod:`repro.lint` proves statically that oracle-paired code never reads
ambient randomness and that shared state is mutated under its lock; this
module enforces the same two invariants *at runtime* while the test
suite executes, so a violation that slips past the AST rules (dynamic
dispatch, getattr tricks, a helper called from the wrong layer) still
fails CI.

Enable with ``REPRO_SANITIZE=1``; the test suite's conftest installs the
sanitizer for the whole session and asserts zero violations at teardown.
Two mechanisms:

ambient-RNG guard
    :func:`install` wraps the module-level :mod:`random` functions and
    the legacy ``numpy.random`` singletons.  A call whose *immediate
    caller* lives in an oracle-paired package
    (:data:`repro.lint.engine.ORACLE_PACKAGES`) raises
    :class:`AmbientAccessError` — those tiers must thread a
    :func:`repro._util.make_rng` generator instead.  Callers elsewhere
    (tests, hypothesis, stdlib) pass through untouched, and
    :func:`allow_ambient` opens an explicit escape hatch.

shared-state write check
    Concurrent classes call :func:`note_write` at each mutation of
    registered shared state, naming the lock that should be held.  When
    tracking is on, a write without the lock held is recorded (not
    raised — the racing write already happened; raising would just move
    the crash) and surfaced by :func:`violations` at session teardown.
"""

from __future__ import annotations

import functools
import os
import random as _random
import sys
import threading
import traceback
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "AmbientAccessError",
    "allow_ambient",
    "enabled",
    "install",
    "installed",
    "note_write",
    "reset",
    "uninstall",
    "violations",
]

#: Packages whose code must never read ambient RNG state.  The lint
#: engine owns the list; it is imported lazily because this module is
#: imported from hot paths (journal, tracer) that must stay cycle-free
#: and cheap when the sanitizer is off.
_ORACLE_PACKAGES: tuple[str, ...] | None = None


def _oracle_packages() -> tuple[str, ...]:
    global _ORACLE_PACKAGES
    if _ORACLE_PACKAGES is None:
        from .lint.engine import ORACLE_PACKAGES

        _ORACLE_PACKAGES = ORACLE_PACKAGES
    return _ORACLE_PACKAGES


#: Module-level ``random`` functions the guard wraps.
_RANDOM_FUNCS = (
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "getrandbits", "randbytes", "triangular",
)

#: Legacy ``numpy.random`` singleton functions (the seeded-global API
#: the determinism contract bans; ``default_rng`` streams are fine).
_NP_FUNCS = (
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal",
)


class AmbientAccessError(RuntimeError):
    """An oracle-paired module read ambient random state."""


_ALLOW: ContextVar[bool] = ContextVar("repro_sanitize_allow", default=False)

_INSTALLED = False
_TRACKING = False
_SAVED: dict[tuple[str, str], object] = {}
_VIOLATIONS: list[dict] = []
_VIO_LOCK = threading.Lock()


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` opts the process in."""
    return os.environ.get("REPRO_SANITIZE", "").lower() in ("1", "true", "on")


def installed() -> bool:
    return _INSTALLED


@contextmanager
def allow_ambient():
    """Escape hatch: permit ambient RNG reads inside the block."""
    token = _ALLOW.set(True)
    try:
        yield
    finally:
        _ALLOW.reset(token)


def _caller_module(depth: int = 2) -> str:
    frame = sys._getframe(depth)
    return frame.f_globals.get("__name__", "")


def _oracle_paired(module: str) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in _oracle_packages()
    )


def _guard(original, qualname: str):
    @functools.wraps(original)
    def guarded(*args, **kwargs):
        if not _ALLOW.get():
            module = _caller_module()
            if _oracle_paired(module):
                raise AmbientAccessError(
                    f"{module} called ambient {qualname}; oracle-paired "
                    "code must thread a repro._util.make_rng generator "
                    "(or wrap the call in repro.sanitize.allow_ambient)"
                )
        return original(*args, **kwargs)

    guarded.__repro_sanitize__ = True
    return guarded


def install() -> None:
    """Patch ambient RNG entry points and start write tracking."""
    global _INSTALLED, _TRACKING
    if _INSTALLED:
        return
    _oracle_packages()   # prefetch so guarded calls never import mid-flight
    for name in _RANDOM_FUNCS:
        original = getattr(_random, name, None)
        if original is None or getattr(original, "__repro_sanitize__", False):
            continue
        _SAVED[("random", name)] = original
        setattr(_random, name, _guard(original, f"random.{name}"))
    try:
        import numpy as np
    except ImportError:
        np = None
    if np is not None:
        for name in _NP_FUNCS:
            original = getattr(np.random, name, None)
            if original is None or getattr(original, "__repro_sanitize__", False):
                continue
            _SAVED[("numpy.random", name)] = original
            setattr(np.random, name, _guard(original, f"numpy.random.{name}"))
    _INSTALLED = True
    _TRACKING = True


def uninstall() -> None:
    """Restore the patched entry points and stop write tracking."""
    global _INSTALLED, _TRACKING
    if not _INSTALLED:
        return
    for (scope, name), original in _SAVED.items():
        if scope == "random":
            setattr(_random, name, original)
        else:
            import numpy as np

            setattr(np.random, name, original)
    _SAVED.clear()
    _INSTALLED = False
    _TRACKING = False


def _held(lock) -> bool:
    """Best-effort 'is *lock* currently held' across lock flavors.

    ``Lock.locked()`` is true when *any* thread holds it — good enough,
    because :func:`note_write` runs at the mutation site, where the
    correct pattern is to hold the lock yourself.
    """
    inner = getattr(lock, "_lock", None)   # Condition wraps a lock
    if inner is not None:
        return _held(inner)
    is_owned = getattr(lock, "_is_owned", None)   # RLock
    if callable(is_owned):
        return bool(is_owned())
    locked = getattr(lock, "locked", None)
    if callable(locked):
        return bool(locked())
    return False


def note_write(name: str, lock) -> None:
    """Record a mutation of shared state *name* guarded by *lock*.

    No-op unless the sanitizer is installed; when tracking, a write with
    *lock* not held is recorded as a violation for session teardown.
    """
    if not _TRACKING:
        return
    if _held(lock):
        return
    stack = traceback.extract_stack(sys._getframe(1), limit=4)
    with _VIO_LOCK:
        _VIOLATIONS.append({
            "state": name,
            "thread": threading.current_thread().name,
            "stack": [f"{f.filename}:{f.lineno} in {f.name}" for f in stack],
        })


def violations() -> list[dict]:
    """Unsynchronized writes recorded since :func:`install`/:func:`reset`."""
    with _VIO_LOCK:
        return list(_VIOLATIONS)


def reset() -> None:
    """Drop recorded violations (the test fixture calls this per session)."""
    with _VIO_LOCK:
        _VIOLATIONS.clear()
