"""Unit tests for the repro.lint rule engine: one fixture snippet per
rule id, waiver matching/expiry, and engine plumbing (module
classification, syntax-error reporting, category filters)."""

from __future__ import annotations

from datetime import date
from pathlib import Path

import pytest

from repro.lint import FAST_TIERS, WaiverSet, all_lint_rules, run_lint


def sweep(tmp_path: Path, files: dict[str, str], **kw):
    """Write *files* (path -> source) under *tmp_path* and lint them."""
    for rel, source in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)
    return run_lint(root=tmp_path, **kw)


def hits(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


# -- engine plumbing ------------------------------------------------------


def test_registry_has_stable_rule_ids():
    ids = [r.id for r in all_lint_rules()]
    assert ids == sorted(ids)
    for rule_id in ("DET-001", "DET-003", "CONC-001", "CONC-004",
                    "ORC-001", "ORC-002", "ORC-003"):
        assert rule_id in ids


def test_syntax_error_becomes_lnt001(tmp_path):
    report = sweep(tmp_path, {"src/repro/broken.py": "def oops(:\n"})
    (f,) = hits(report, "LNT-001")
    assert f.severity.name == "ERROR"
    assert "parse" in f.message


def test_non_repro_files_are_not_swept(tmp_path):
    # DET/CONC discipline binds the library, not scripts or tests.
    report = sweep(
        tmp_path,
        {"tools/script.py": "import random\nx = random.random()\n"},
        rules=["DET-001"],
    )
    assert not report.findings


def test_unknown_category_raises(tmp_path):
    with pytest.raises(ValueError):
        sweep(tmp_path, {}, categories=["nope"])


# -- DET rules ------------------------------------------------------------


def test_det001_ambient_random_escalates_in_oracle_package(tmp_path):
    src = "import random\n\ndef jitter():\n    return random.random()\n"
    report = sweep(
        tmp_path,
        {"src/repro/place/foo.py": src, "src/repro/util_x.py": src},
        rules=["DET-001"],
    )
    assert {f.path for f in report.findings} == {
        "src/repro/place/foo.py", "src/repro/util_x.py"
    }
    assert all(f.severity.name == "ERROR" for f in report.findings)


def test_det001_numpy_legacy_and_aliases(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/route/foo.py": (
            "import numpy as np\n"
            "from random import randint\n"
            "def f():\n"
            "    a = np.random.rand(3)\n"
            "    b = randint(0, 9)\n"
            "    return a, b\n"
        ),
    }, rules=["DET-001"])
    assert len(hits(report, "DET-001")) == 2


def test_det001_ignores_threaded_generators(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/place/foo.py": (
            "from repro._util import make_rng\n"
            "def f(seed):\n"
            "    rng = make_rng(seed)\n"
            "    return rng.random()\n"
        ),
    }, rules=["DET-001"])
    assert not report.findings


def test_det002_wall_clock(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/timing/foo.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
            "def ok():\n"
            "    return time.perf_counter()\n"   # profiling is fine
        ),
    }, rules=["DET-002"])
    (f,) = report.findings
    assert f.line == 3
    assert f.severity.name == "ERROR"            # oracle-paired package


def test_det003_set_iteration(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/route/foo.py": (
            "def f(xs):\n"
            "    out = []\n"
            "    for x in set(xs):\n"
            "        out.append(x)\n"
            "    good = [y for y in sorted(set(xs))]\n"
            "    bad = [y for y in {x for x in xs}]\n"
            "    return out, good, bad\n"
        ),
    }, rules=["DET-003"])
    assert [f.line for f in report.findings] == [3, 6]


def test_det004_unsorted_listing(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/eco/foo.py": (
            "import os\n"
            "def f(d):\n"
            "    for name in os.listdir(d):\n"
            "        print(name)\n"
            "def g(d):\n"
            "    return sorted(os.listdir(d))\n"   # the fix pattern
            "def h(d):\n"
            "    return len(os.listdir(d))\n"      # cardinality only
        ),
    }, rules=["DET-004"])
    assert [f.line for f in report.findings] == [3]


def test_det005_float_sum_over_set(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/place/foo.py": (
            "def f(costs):\n"
            "    return sum({c * 1.5 for c in costs})\n"
        ),
    }, rules=["DET-005"])
    assert len(report.findings) == 1


def test_det006_id_ordering(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/route/foo.py": (
            "def f(cells):\n"
            "    return sorted(cells, key=id)\n"
        ),
    }, rules=["DET-006"])
    (f,) = report.findings
    assert f.severity.name == "ERROR"


# -- CONC rules -----------------------------------------------------------


def test_conc001_unlocked_mutation_escalates_in_serve(tmp_path):
    src = (
        "_CACHE = {}\n"
        "def put(k, v):\n"
        "    _CACHE[k] = v\n"
    )
    report = sweep(
        tmp_path,
        {"src/repro/serve/foo.py": src, "src/repro/fabric/foo.py": src},
        rules=["CONC-001"],
    )
    by_path = {f.path: f for f in report.findings}
    assert by_path["src/repro/serve/foo.py"].severity.name == "ERROR"
    assert by_path["src/repro/fabric/foo.py"].severity.name == "WARNING"


def test_conc001_lock_guard_and_import_time_are_exempt(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/serve/foo.py": (
            "import threading\n"
            "_CACHE = {}\n"
            "_LOCK = threading.Lock()\n"
            "_CACHE['seed'] = 1\n"                 # import-time: fine
            "def put(k, v):\n"
            "    with _LOCK:\n"
            "        _CACHE[k] = v\n"              # guarded: fine
        ),
    }, rules=["CONC-001"])
    assert not report.findings


def test_conc001_dunder_assignments_are_not_state(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/serve/foo.py": (
            "__all__ = ['put']\n"
            "def put(k, v):\n"
            "    pass\n"
        ),
    }, rules=["CONC-001", "CONC-003"])
    assert not report.findings


def test_conc002_bare_acquire(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/obs/foo.py": (
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def f():\n"
            "    _lock.acquire()\n"
            "def ok():\n"
            "    with _lock:\n"
            "        pass\n"
        ),
    }, rules=["CONC-002"])
    assert [f.line for f in report.findings] == [4]


def test_conc003_fork_unsafe_global(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/engine/foo.py": (
            "import multiprocessing\n"
            "_RESULTS = []\n"
            "def run(jobs):\n"
            "    with multiprocessing.Pool() as pool:\n"
            "        return pool.map(str, jobs)\n"
        ),
    }, rules=["CONC-003"])
    (f,) = report.findings
    assert "_RESULTS" in f.message


def test_conc004_predictable_tmp_name(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/serve/foo.py": (
            "import tempfile\n"
            "def bad(path):\n"
            "    return path + '.json.tmp'\n"
            "def good(d):\n"
            "    return tempfile.mkstemp(dir=d, suffix='.tmp')\n"
        ),
    }, rules=["CONC-004"])
    assert [f.line for f in report.findings] == [3]
    assert report.findings[0].severity.name == "ERROR"


# -- ORC rules ------------------------------------------------------------

_TIER_TREE = {
    # A minimal project tree where one registered tier is fully compliant.
    "src/repro/route/pathfinder.py": "class Router:\n    pass\n",
    "src/repro/route/native.py": (
        'ORACLE = "repro.route.pathfinder.Router.route_reference"\n'
        "def route_native():\n    pass\n"
    ),
    "tests/test_property_route.py": (
        "from repro.route.native import route_native\n"
    ),
}


def test_orc001_missing_tier_and_missing_declaration(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/place/native.py": "def kernels():\n    pass\n",   # no ORACLE
    }, rules=["ORC-001"])
    found = hits(report, "ORC-001")
    # every registered-but-absent tier is reported, plus the declaration gap
    assert len(found) == len(FAST_TIERS)
    bare = [f for f in found if f.path.endswith("place/native.py")]
    assert bare and "ORACLE" in bare[0].message


def test_orc_compliant_tier_is_clean(tmp_path):
    report = sweep(tmp_path, dict(_TIER_TREE),
                   rules=["ORC-001", "ORC-002", "ORC-003"])
    native = [f for f in report.findings
              if f.path == "src/repro/route/native.py"]
    assert not native


def test_orc002_uncovered_tier(tmp_path):
    files = dict(_TIER_TREE)
    files["tests/test_property_route.py"] = "import repro.route.pathfinder\n"
    report = sweep(tmp_path, files, rules=["ORC-002"])
    native = [f for f in hits(report, "ORC-002")
              if f.path == "src/repro/route/native.py"]
    assert len(native) == 1


def test_orc003_dangling_oracle_attr(tmp_path):
    files = dict(_TIER_TREE)
    files["src/repro/route/pathfinder.py"] = "class Maze:\n    pass\n"
    report = sweep(tmp_path, files, rules=["ORC-003"])
    (f,) = hits(report, "ORC-003")
    assert "Router" in f.message


# -- waivers --------------------------------------------------------------


def test_waiver_suppresses_by_fnmatch_path(tmp_path):
    waivers = WaiverSet.from_dict({"waivers": [{
        "rules": ["DET-00*"],
        "match": "src/repro/place/*",
        "reason": "reviewed",
    }]})
    report = sweep(tmp_path, {
        "src/repro/place/foo.py": "import random\nx = random.random()\n",
        "src/repro/route/foo.py": "import random\ny = random.random()\n",
    }, rules=["DET-001"], waivers=waivers)
    by_path = {f.path: f for f in report.findings}
    assert by_path["src/repro/place/foo.py"].waived
    assert by_path["src/repro/place/foo.py"].waived_reason == "reviewed"
    assert not by_path["src/repro/route/foo.py"].waived
    assert not report.is_clean()
    assert report.exit_code("strict") == 2


def test_expired_waiver_is_inert_and_surfaces_wvr001(tmp_path):
    waivers = WaiverSet.from_dict({"waivers": [{
        "rules": ["DET-001"],
        "match": "*",
        "reason": "temporary",
        "expires": "2026-01-01",
    }]})
    report = sweep(
        tmp_path,
        {"src/repro/place/foo.py": "import random\nx = random.random()\n"},
        rules=["DET-001"], waivers=waivers, today=date(2026, 6, 1),
    )
    det = hits(report, "DET-001")
    assert det and not det[0].waived
    assert hits(report, "WVR-001")


def test_clean_report_gates_zero(tmp_path):
    report = sweep(tmp_path, {
        "src/repro/place/foo.py": "def f():\n    return 1\n",
    }, rules=["DET-001"])
    assert report.is_clean()
    assert report.exit_code("strict") == 0
    assert report.exit_code("off") == 0
    assert "clean" in report.table()
