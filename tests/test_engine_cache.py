"""Content-addressed build cache: canonical keys, persistence, accounting."""

import json
import numbers

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import BuildCache, Engine, TaskSpec, content_key
from repro.engine.cache import canonical, canonical_blob


# -- canonical keys ------------------------------------------------------------


def test_numeric_types_collapse():
    assert content_key(("conv", 1, 2)) == content_key(("conv", np.int64(1), np.int64(2)))
    assert content_key(1.5) == content_key(np.float64(1.5))


def test_tuples_and_lists_equivalent():
    assert content_key((1, 2, 3)) == content_key([1, 2, 3])
    assert content_key(((1, 2), 3)) == content_key([[1, 2], 3])


def test_distinctions_preserved():
    assert content_key(1) != content_key(1.5)
    assert content_key(True) != content_key(1)
    assert content_key("1") != content_key(1)
    assert content_key(None) != content_key(0)
    assert content_key(("a", 1)) != content_key(("a", 2))


def test_salt_changes_key():
    assert content_key("x") != content_key("x", salt="other-salt")


def test_canonical_blob_sorts_dict_keys():
    assert canonical_blob({"b": 1, "a": 2}) == canonical_blob({"a": 2, "b": 1})


def _canonical_abc(obj):
    """``canonical`` as it was before its exact-type fast path: every value
    goes through the ``numbers`` ABC checks.  Kept as the oracle."""
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical_abc(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): _canonical_abc(value) for key, value in obj.items()}
    if isinstance(obj, (bytes, bytearray)):
        return bytes(obj).hex()
    return repr(obj)


class _Text(str):
    """A str subclass: not an exact builtin, so it takes the ABC path."""


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.binary(max_size=6).map(bytearray),
    st.text(max_size=6).map(_Text),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.just(object),  # unknown objects fall back to repr
)
_keys = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.booleans(),
                  st.integers(0, 9).map(np.int64))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=25,
)


def _typed(value):
    """*value* with every node's exact type, so ``1``/``1.0``/``True`` differ."""
    if isinstance(value, list):
        return [_typed(v) for v in value]
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    return (type(value), value)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_canonical_fast_path_matches_abc_path(value):
    got, want = canonical(value), _canonical_abc(value)
    assert _typed(got) == _typed(want)
    assert canonical_blob(value) == json.dumps(
        want, sort_keys=True, separators=(",", ":")
    ).encode()


# -- BuildCache ----------------------------------------------------------------


def test_memory_cache_roundtrip_and_stats():
    cache = BuildCache()
    key = content_key("k")
    assert cache.get(key) is None
    cache.put(key, {"v": 1})
    assert cache.get(key) == {"v": 1}
    assert key in cache
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.puts == 1


def test_directory_cache_persists_across_instances(tmp_path):
    a = BuildCache(directory=tmp_path / "cache")
    key = content_key("persisted")
    a.put(key, {"payload": [1, 2, 3]})
    b = BuildCache(directory=tmp_path / "cache")
    assert b.get(key) == {"payload": [1, 2, 3]}
    assert b.stats.hits == 1


def test_lru_eviction_accounting(tmp_path):
    cache = BuildCache(directory=tmp_path / "cache", max_entries=2)
    k1, k2, k3 = (content_key(i) for i in range(3))
    cache.put(k1, 1)
    cache.put(k2, 2)
    cache.put(k3, 3)
    assert cache.stats.evictions == 1
    assert cache.get(k1) is None  # oldest gone, from disk too
    assert cache.get(k2) == 2 and cache.get(k3) == 3


def test_eviction_respects_recency():
    cache = BuildCache(max_entries=2)
    k1, k2, k3 = (content_key(i) for i in range(3))
    cache.put(k1, 1)
    cache.put(k2, 2)
    cache.get(k1)       # touch k1 so k2 is LRU
    cache.put(k3, 3)
    assert cache.get(k1) == 1
    assert cache.get(k2) is None


# -- engine integration --------------------------------------------------------


def _expensive(x):
    return {"value": x * x}


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_answers_from_cache(jobs, tmp_path):
    cache = BuildCache(directory=tmp_path / "cache")

    tasks = [TaskSpec(f"t{i}", _expensive, (i,), cache_key=content_key("sq", i))
             for i in range(3)]

    cold = Engine(jobs=jobs, cache=cache).run(tasks)
    assert cold.miss_count == 3 and cold.hit_count == 0
    warm = Engine(jobs=jobs, cache=cache).run(tasks)
    assert warm.hit_count == 3 and warm.miss_count == 0
    assert warm.results == cold.results
    assert all(t.worker == "cache" for t in warm.tasks)


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    cache = BuildCache(directory=tmp_path / "cache")
    key = content_key("corrupt-me")
    cache.put(key, {"value": 1})
    path = tmp_path / "cache" / key[:2] / f"{key}.bin"
    path.write_bytes(b"garbage not a cache blob")

    fresh = BuildCache(directory=tmp_path / "cache")
    assert key not in fresh
    assert fresh.get(key) is None          # miss, not a traceback
    assert not path.exists()               # bad entry dropped
    fresh.put(key, {"value": 2})
    assert fresh.get(key) == {"value": 2}  # key is usable again
