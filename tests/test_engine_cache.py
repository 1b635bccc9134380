"""Content keys and the component library they name: canonical keys,
persistence across processes, answers with any worker count, corrupt files."""

import json
import numbers

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnn import group_components
from repro.engine import content_key
from repro.engine import cache
from repro.engine.cache import canonical, canonical_blob
from repro.obs import Tracer
from repro.rapidwright import ComponentDatabase
from repro.rapidwright.database import build_cache_key
from tests.conftest import make_tiny_cnn


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


def test_salt_changes_key(monkeypatch):
    key = content_key("x")
    monkeypatch.setattr(cache, "CODE_SALT", "other-salt")
    assert content_key("x") != key


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


# -- the component library -------------------------------------------------------


LOW = dict(rom_weights=True, effort="low", seed=0)


@pytest.fixture(scope="module")
def comps():
    return group_components(make_tiny_cnn(), "layer")


def _build(device, comps, directory=None, **kwargs):
    """Build *comps* at low effort; return the database, its report and the
    library counters."""
    db = ComponentDatabase(device, directory=directory)
    tracer = Tracer()
    with tracer.activate():
        report = db.build(comps, **LOW, **kwargs)
    counts = {name: tracer.metrics.counter(f"library.{name}").value
              for name in ("hit", "rejected")}
    return db, report, counts


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_memory_cache_roundtrip_and_stats(small_device, comps):
    """Without a directory the records are the only store: a repeat build
    is answered from them, and nothing is counted as a library hit."""
    db, cold, _ = _build(small_device, comps)
    tracer = Tracer()
    with tracer.activate():
        warm = db.build(comps, **LOW)
    assert len(cold.tasks) == len(db) and warm.tasks == []
    assert tracer.metrics.counter("library.hit").value == 0


def test_directory_cache_persists_across_instances(small_device, comps, tmp_path):
    lib = tmp_path / "lib"
    first, _, _ = _build(small_device, comps, lib)
    assert sorted(_files(lib)) == sorted(
        f"{build_cache_key(c, small_device, **LOW)}.dcpb"
        for c in {c.signature: c for c in comps}.values())
    second, report, counts = _build(small_device, comps, lib)
    assert report.tasks == [] and report.run_s == 0.0
    assert counts == {"hit": len(first), "rejected": 0}
    assert {k: r.image.to_bytes() for k, r in second.records.items()} == \
        {k: r.image.to_bytes() for k, r in first.records.items()}


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_answers_from_cache(jobs, small_device, comps, tmp_path):
    """A library hit is not an engine task, whatever the worker count."""
    lib = tmp_path / "lib"
    cold_db, cold, counts = _build(small_device, comps, lib, jobs=jobs)
    assert len(cold.tasks) == len(cold_db) and counts["hit"] == 0
    files = _files(lib)
    warm_db, warm, counts = _build(small_device, comps, lib, jobs=jobs)
    assert warm.tasks == [] and counts["hit"] == len(warm_db)
    assert _files(lib) == files   # a hit rewrites nothing


def test_corrupt_disk_entry_is_a_miss(small_device, comps, tmp_path):
    lib = tmp_path / "lib"
    _build(small_device, comps[:1], lib)
    (path,) = lib.iterdir()
    good = path.read_bytes()
    path.write_bytes(b"garbage not a design image")
    with pytest.warns(RuntimeWarning, match="library file rejected"):
        _, report, counts = _build(small_device, comps[:1], lib)
    assert counts == {"hit": 0, "rejected": 1} and len(report.tasks) == 1
    assert path.read_bytes() == good          # rebuilt and replaced
    _, report, counts = _build(small_device, comps[:1], lib)
    assert counts == {"hit": 1, "rejected": 0}


def test_library_named_by_a_string(tmp_path):
    """A library directory given as a ``str`` is a path like any other:
    the second compile is answered from the first one's files."""
    from repro.netlist.codec import encode_design
    from repro.spec import JobSpec, compile_spec

    spec = JobSpec(model="lenet5", part="small", effort="low")
    cold = compile_spec(spec, jobs=1, library=str(tmp_path))
    assert cold.extras["offline_s"] > 0.0 and any(tmp_path.iterdir())
    warm = compile_spec(spec, jobs=1, library=str(tmp_path))
    assert warm.extras["offline_s"] == 0.0
    assert encode_design(warm.design) == encode_design(cold.design)
