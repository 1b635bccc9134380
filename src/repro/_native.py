"""Shared on-demand C build infrastructure for the native cores.

Both compiled hot-path cores (the placer's Metropolis sweep and the
router's PathFinder negotiation) use the same recipe: compile the
checked-in C source once per content hash with the system compiler
(``-O2 -ffp-contract=off``, no fast-math, so IEEE double semantics
match CPython exactly), cache the shared object under the user's cache
directory, and load it through ctypes.  A missing compiler, a failed
build, or ``REPRO_NATIVE=0`` all yield ``None`` — callers fall back to
the pure-Python implementations, which are bit-identical.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path

__all__ = ["build_library", "cache_dir", "native_disabled"]


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro-native"


def native_disabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") in ("0", "false", "no")


def build_library(source: Path, stem: str) -> ctypes.CDLL | None:
    """Compile *source* (cached by content hash as ``{stem}-{tag}.so``)
    and load it; ``None`` when native cores are unavailable."""
    if native_disabled() or not source.exists():
        return None
    tag = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    so = cache_dir() / f"{stem}-{tag}.so"
    # A cached build serves machines without a compiler (slim CI images,
    # serve worker containers): only a cache miss needs one.
    if not so.exists():
        import shutil
        import subprocess

        cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        if cc is None:
            return None
        so.parent.mkdir(parents=True, exist_ok=True)
        tmp = so.with_name(f"{so.stem}.{os.getpid()}.tmp.so")
        try:
            subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
                 "-o", str(tmp), str(source), "-lm"],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, so)
        except (OSError, subprocess.SubprocessError):
            tmp.unlink(missing_ok=True)
            return None
    try:
        return ctypes.CDLL(str(so))
    except OSError:
        return None
