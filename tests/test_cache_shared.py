"""Shared-directory BuildCache: atomicity, corruption, eviction scoping.

The serve farm points every worker of every server process at one cache
directory, so the disk tier must survive concurrent writers racing on
the same content key, readers hitting half-written or corrupted blobs,
and one instance's LRU eviction running over entries another instance
wrote.  These tests drive those paths directly, including a real
multi-process stress run.
"""

from __future__ import annotations

import gzip
import json
import multiprocessing
import os

import pytest

from repro.engine.cache import BuildCache


def _stress_worker(directory: str, worker: int, rounds: int) -> dict:
    """One stress process: put/get overlapping keys in a shared dir."""
    cache = BuildCache(directory, shared=True)
    errors = []
    for i in range(rounds):
        # Overlapping key space: every process writes the same keys, so
        # concurrent put() calls race on identical paths constantly.
        key = f"{'%02x' % (i % 8)}sharedkey{i % 8:04d}" + "0" * 48
        value = {"key": key, "payload": list(range(32))}
        cache.put(key, value)
        got = cache.get(key)
        if got != value:
            errors.append(f"worker {worker} round {i}: got {got!r}")
    return {"worker": worker, "errors": errors, "puts": cache.stats.puts}


class TestSharedStress:
    def test_multiprocess_put_get_overlapping_keys(self, tmp_path):
        directory = tmp_path / "farm-cache"
        nproc, rounds = 4, 40
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(nproc) as pool:
            results = pool.starmap(
                _stress_worker, [(str(directory), w, rounds) for w in range(nproc)]
            )
        for result in results:
            assert result["errors"] == [], result["errors"]
            assert result["puts"] == rounds
        # No half-written temp files survive the race.
        leftovers = [p for p in directory.rglob("*.tmp")]
        assert leftovers == []
        # Every key is readable by a fresh instance and content-correct.
        fresh = BuildCache(directory, shared=True)
        for i in range(8):
            key = f"{'%02x' % i}sharedkey{i:04d}" + "0" * 48
            assert fresh.get(key) == {"key": key, "payload": list(range(32))}

    def test_concurrent_same_key_threads(self, tmp_path):
        import threading

        cache = BuildCache(tmp_path, shared=True)
        key = "aa" * 32
        errors = []

        def hammer(n):
            try:
                for _ in range(50):
                    cache.put(key, {"n": "x" * 500})
                    value = cache.get(key)
                    if value != {"n": "x" * 500}:
                        errors.append(value)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestCorruptBlobs:
    def _path_of(self, cache: BuildCache, key: str):
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    @pytest.mark.parametrize("garbage", [b"", b"not gzip at all", b"\x1f\x8b\x08trunc"])
    def test_corrupt_blob_is_a_miss(self, tmp_path, garbage):
        cache = BuildCache(tmp_path)
        key = "bb" * 32
        self._path_of(cache, key).write_bytes(garbage)
        assert cache.get(key, default="fallback") == "fallback"
        assert cache.stats.misses == 1

    def test_truncated_gzip_of_real_blob(self, tmp_path):
        writer = BuildCache(tmp_path)
        key = "cc" * 32
        writer.put(key, {"big": list(range(1000))})
        path = self._path_of(writer, key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # simulate torn write
        reader = BuildCache(tmp_path)
        assert reader.get(key) is None

    def test_private_mode_unlinks_corrupt_blob(self, tmp_path):
        cache = BuildCache(tmp_path)
        key = "dd" * 32
        path = self._path_of(cache, key)
        path.write_bytes(b"garbage")
        assert cache.get(key) is None
        assert not path.exists()

    def test_shared_mode_leaves_corrupt_blob_alone(self, tmp_path):
        """A sibling may replace the blob between our read and unlink."""
        cache = BuildCache(tmp_path, shared=True)
        key = "ee" * 32
        path = self._path_of(cache, key)
        path.write_bytes(b"garbage")
        assert cache.get(key) is None
        assert path.exists()
        # And once a good blob lands, the same key serves hits again.
        other = BuildCache(tmp_path, shared=True)
        other.put(key, {"fixed": True})
        assert cache.get(key) == {"fixed": True}

    def test_corrupt_gzip_valid_but_bad_json(self, tmp_path):
        cache = BuildCache(tmp_path)
        key = "ff" * 32
        self._path_of(cache, key).write_bytes(gzip.compress(b"{not json"))
        assert cache.get(key) is None


class TestEvictionScoping:
    def test_eviction_never_unlinks_foreign_entries(self, tmp_path):
        writer = BuildCache(tmp_path)
        foreign = ["a1" * 32, "a2" * 32, "a3" * 32]
        for key in foreign:
            writer.put(key, {"from": "writer", "key": key})

        reader = BuildCache(tmp_path, max_entries=2)
        for key in foreign:          # reads populate reader's LRU ...
            assert reader.get(key) is not None
        reader.put("b1" * 32, {"own": 1})  # ... and this forces evictions
        assert reader.stats.evictions >= 1
        # Foreign blobs survive on disk even though they left reader's LRU.
        for key in foreign:
            assert writer._path(key).exists()

    def test_eviction_unlinks_own_entries_in_private_mode(self, tmp_path):
        cache = BuildCache(tmp_path, max_entries=1)
        cache.put("c1" * 32, {"n": 1})
        cache.put("c2" * 32, {"n": 2})
        assert not cache._path("c1" * 32).exists()
        assert cache._path("c2" * 32).exists()

    def test_shared_mode_never_unlinks_even_own_entries(self, tmp_path):
        cache = BuildCache(tmp_path, shared=True, max_entries=1)
        cache.put("d1" * 32, {"n": 1})
        cache.put("d2" * 32, {"n": 2})
        assert cache.stats.evictions >= 1
        assert cache._path("d1" * 32).exists()
        assert cache._path("d2" * 32).exists()


class TestSharding:
    def test_sharded_layout(self, tmp_path):
        cache = BuildCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, {"v": 1})
        assert (tmp_path / "ab" / f"{key}.bin").exists()
        assert len(BuildCache(tmp_path)) == 1

    def test_flat_file_is_not_an_entry(self, tmp_path):
        """One location per key: a blob at the directory root is a miss, uncounted, untouched."""
        writer = BuildCache(tmp_path)
        key = "cd" + "1" * 62
        writer.put(key, {"v": 1})
        flat = tmp_path / f"{key}.bin"
        writer._path(key).rename(flat)
        reader = BuildCache(tmp_path)
        assert reader.get(key) is None and len(reader) == 0
        assert flat.exists()

    def test_put_failure_leaves_no_temp_files(self, tmp_path):
        cache = BuildCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put("aa" + "4" * 62, {"bad": object()})
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.bin")) == []
