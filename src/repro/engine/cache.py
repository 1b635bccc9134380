"""Content-addressed build cache.

The pre-implemented flow's productivity claim rests on paying the
function-optimization cost once and amortizing it: this cache is where
the amortization lives.  Entries are keyed by a SHA-256 over a
*canonical* serialization of the inputs that determine the result —
component signature, device part, effort, seed, port planning, plus a
code-version salt (:data:`CODE_SALT`) so stale results are invalidated
when the implementation recipe changes — and persist to a directory of
binary value blobs shared across processes and runs.

Values are stored in the codec's tagged binary format
(:func:`repro.netlist.codec.pack_value` under fast zlib) — worker
outputs carry binary design images as ``bytes``, which JSON cannot hold,
and the binary format also keeps tuples and non-string dict keys intact
where a JSON round trip would mangle them.  A key has exactly one
on-disk location, ``<directory>/<key[:2]>/<key>.bin``; anything else in
the directory is not an entry, and every entry is rebuildable.

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
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .. import sanitize
from ..netlist.codec import pack_value, unpack_value

__all__ = ["CODE_SALT", "canonical", "canonical_blob", "content_key", "write_atomic",
           "CacheStats", "BuildCache"]

#: Leading magic of a binary cache entry (``<key>.bin``).
BIN_MAGIC = b"RBC1"

#: Bump when the build recipe changes in a way that invalidates cached
#: results (new pblock heuristics, port-planning changes, ...).
CODE_SALT = "repro-engine-v1"

_MISS = object()


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


def content_key(*parts: Any, salt: str = CODE_SALT) -> str:
    """Content-addressed cache key over *parts* (salted, hex SHA-256)."""
    return hashlib.sha256(canonical_blob((salt,) + parts)).hexdigest()


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


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one :class:`BuildCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def __str__(self) -> str:
        return (
            f"{self.hits} hit / {self.misses} miss / "
            f"{self.puts} put / {self.evictions} evicted"
        )


class BuildCache:
    """Content-addressed store of codec-serializable build results.

    In-memory by default; give a *directory* to persist entries as
    ``<key[:2]>/<key>.bin`` (the prefix directories keep a farm-sized
    cache from accumulating one flat directory of millions of files) so
    warm rebuilds work across processes.  With *max_entries*,
    least-recently-used entries are evicted once the bound is exceeded:
    always from memory, and from disk only for keys this instance wrote
    itself — entries merely *read* from a directory another process
    populated are never unlinked out from under their writer.
    Returned values are shared — treat them as read-only.

    *shared* marks the directory as a multi-process tier (the serve job
    store runs one per farm): writes stay atomic and unique-temp-named as
    always, but eviction and corrupt-blob recovery never delete disk
    files, since a sibling process may have just replaced them with a
    good entry.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        max_entries: int | None = None,
        shared: bool = False,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.max_entries = max_entries
        self.shared = bool(shared)
        self.stats = CacheStats()
        self._mem: OrderedDict[str, Any] = OrderedDict()
        self._owned: set[str] = set()
        # Serve workers share one cache across threads; the LRU dict and
        # stats need a lock even though the disk tier is already atomic.
        self._lock = threading.RLock()

    # -- lookup ------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Fetch *key*, counting a hit or a miss."""
        with self._lock:
            value = self._peek(key)
            if value is _MISS:
                self.stats.misses += 1
                return default
            self.stats.hits += 1
            return value

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return self._peek(key) is not _MISS

    def _peek(self, key: str) -> Any:
        if key in self._mem:
            self._mem.move_to_end(key)
            return self._mem[key]
        if self.directory is not None:
            path = self._path(key)
            if path.exists():
                try:
                    raw = path.read_bytes()
                    if not raw.startswith(BIN_MAGIC):
                        raise ValueError("bad cache entry magic")
                    value = unpack_value(zlib.decompress(raw[len(BIN_MAGIC):]))
                except (OSError, EOFError, ValueError, zlib.error):
                    # Corrupt or truncated on-disk entry: treat as a miss.
                    # Only unlink in private mode — in a shared directory a
                    # sibling process may have already replaced the path
                    # with a good blob we would be deleting.
                    if not self.shared:
                        path.unlink(missing_ok=True)
                    return _MISS
                self._remember(key, value)
                return value
        return _MISS

    # -- store -------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Store *value* (must be codec-serializable) under *key*.

        The on-disk write is crash- and race-safe: the blob lands in a
        uniquely named temp file in the destination directory and is
        moved into place with an atomic :func:`os.replace`, so two
        processes storing the same key concurrently cannot interleave
        partial writes (the last complete blob wins, and both are
        identical anyway — keys are content addresses).
        """
        if self.directory is not None:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, BIN_MAGIC + zlib.compress(pack_value(value), 1))
        with self._lock:
            self._owned.add(key)
            self._remember(key, value)
            self.stats.puts += 1

    def _remember(self, key: str, value: Any) -> None:
        sanitize.note_write("engine.BuildCache._mem", self._lock)
        self._mem[key] = value
        self._mem.move_to_end(key)
        while self.max_entries is not None and len(self._mem) > self.max_entries:
            old, _ = self._mem.popitem(last=False)
            # Disk eviction is scoped to keys this instance wrote, and
            # disabled entirely for shared directories: deleting an entry
            # some other process put (or is mid-read on) would turn their
            # hit into a rebuild — or worse, a partial read.
            if self.directory is not None and not self.shared and old in self._owned:
                self._path(old).unlink(missing_ok=True)
                self._owned.discard(old)
            self.stats.evictions += 1

    def _path(self, key: str) -> Path:
        """The one on-disk location of *key*."""
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.bin"

    def __len__(self) -> int:
        with self._lock:
            keys = set(self._mem)
        if self.directory is not None and self.directory.exists():
            keys.update(p.stem for p in self.directory.glob("*/*.bin"))
        return len(keys)
