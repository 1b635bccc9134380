"""Content addresses and atomic writes.

The pre-implemented flow's productivity claim rests on paying the
function-optimization cost once and amortizing it.  What is paid once is
named by a SHA-256 over a *canonical* serialization of the inputs that
determine it — component signature, device part, effort, seed, port
planning, plus a code-version salt (:data:`CODE_SALT`) so stale results
are invalidated when the implementation recipe changes: the component
library (:class:`~repro.rapidwright.database.ComponentDatabase` with a
*directory*) files each component as ``<key>.dcpb``, and the compile
service files each result document as ``<key>.json``, both through
:func:`write_atomic`.

Canonicalization normalizes numeric types (``numpy.int64(1)`` and ``1``
serialize identically, as do tuples and lists), so keys do not depend on
which frontend produced the signature.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["CODE_SALT", "canonical", "canonical_blob", "content_key", "write_atomic"]

#: Bump when the build recipe changes in a way that invalidates stored
#: results (new pblock heuristics, port-planning changes, ...).
CODE_SALT = "repro-engine-v1"


#: Exact builtin types :func:`canonical` passes through untouched.
_ATOMS = frozenset({str, int, float, bool, type(None)})


def canonical(obj: Any) -> Any:
    """Normal form of *obj* for hashing: JSON-able, numeric-type agnostic.

    Booleans stay booleans (JSON keeps them distinct from ``0``/``1``);
    any integral type collapses to ``int`` and any real type to
    ``float``; tuples and lists are equivalent; dict keys are
    stringified and sorted by the serializer.  Unknown objects fall back
    to ``repr`` — fine for keys, as long as the repr is stable.

    Checkpoint payloads are almost entirely exact builtins, so those are
    recognised by ``type()`` first; the ABC ``isinstance`` checks (an
    order of magnitude slower per value) only see what is left — numpy
    scalars, subclasses, bytes — and give the same result for both.
    """
    kind = type(obj)
    if kind in _ATOMS:
        return obj
    if kind is list or kind is tuple:
        return [item if type(item) in _ATOMS else canonical(item) for item in obj]
    if kind is dict:
        return {
            str(key): value if type(value) in _ATOMS else canonical(value)
            for key, value in obj.items()
        }
    if isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): canonical(value) for key, value in obj.items()}
    if isinstance(obj, (bytes, bytearray)):
        return bytes(obj).hex()
    return repr(obj)


def canonical_blob(obj: Any) -> bytes:
    """Deterministic byte serialization of :func:`canonical` ``(obj)``."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":")).encode()


def content_key(*parts: Any) -> str:
    """Content address of *parts* (salted with :data:`CODE_SALT`, hex SHA-256)."""
    return hashlib.sha256(canonical_blob((CODE_SALT,) + parts)).hexdigest()


def write_atomic(path: Path, data: bytes) -> None:
    """Write *data* to *path* through a uniquely named temp file in the
    same directory and an atomic :func:`os.replace`: a reader sees the
    old file or the new one, never a torn write, and concurrent writers
    of one path cannot interleave."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem[:16]}-",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
