"""Shared on-demand C build infrastructure for the native cores.

Both compiled hot-path cores (the placer's Metropolis sweep and the
router's PathFinder negotiation) use the same recipe: compile the
checked-in C source once per content hash with the system compiler
(``-O2 -ffp-contract=off``, no fast-math, so IEEE double semantics
match CPython exactly), cache the shared object under the user's cache
directory, and load it through ctypes.

Each kernel has exactly two implementations — the core and its Python
reference — so when a core cannot load, the caller runs the reference:
the same bytes out, about ten times slower on place and route
(measured at VGG-16 scale: anneal 0.11 s vs 3.8 s for 400 k moves,
route 0.11 s vs 0.86 s for 27 k connections; a whole ``vgg16_baseline``
compile 1.3 s vs 16 s).  ``REPRO_NATIVE=0`` asks for that and gets it
silently; every other way of ending up there — no compiler and no
cached build, a failed compile, a shared object that will not load —
is reported with one ``RuntimeWarning`` naming the core and the reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import warnings
from pathlib import Path

__all__ = ["build_library", "cache_dir", "native_disabled"]


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro-native"


def native_disabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") in ("0", "false", "no")


def _unavailable(stem: str, reason: str) -> None:
    """The core was wanted and cannot be had: say so.  Callers memoize
    the build result, so this runs once per core per process."""
    warnings.warn(
        f"native core {stem!r} unavailable ({reason}); the Python reference "
        "implementation will run instead: same results, about 10x slower "
        "place and route",
        RuntimeWarning,
        stacklevel=3,
    )
    return None


def build_library(source: Path, stem: str) -> ctypes.CDLL | None:
    """Compile *source* (cached by content hash as ``{stem}-{tag}.so``)
    and load it; ``None`` when the core is unavailable — silently if
    ``REPRO_NATIVE=0`` asked for that, with a ``RuntimeWarning``
    otherwise."""
    if native_disabled():
        return None
    if not source.exists():
        return _unavailable(stem, f"source {source.name} is missing")
    tag = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    so = cache_dir() / f"{stem}-{tag}.so"
    # A cached build serves machines without a compiler (slim CI images,
    # serve worker containers): only a cache miss needs one.
    if not so.exists():
        import shutil
        import subprocess

        cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        if cc is None:
            return _unavailable(stem, f"no C compiler and no cached build in {so.parent}")
        so.parent.mkdir(parents=True, exist_ok=True)
        tmp = so.with_name(f"{so.stem}.{os.getpid()}.tmp.so")
        try:
            subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
                 "-o", str(tmp), str(source), "-lm"],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, so)
        except (OSError, subprocess.SubprocessError) as exc:
            tmp.unlink(missing_ok=True)
            stderr = getattr(exc, "stderr", None) or b""
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return _unavailable(stem, f"compile failed: {last[0] if last else exc}")
    try:
        return ctypes.CDLL(str(so))
    except OSError as exc:
        return _unavailable(stem, f"dlopen failed: {exc}")
