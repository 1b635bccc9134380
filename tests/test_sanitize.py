"""Unit tests for the opt-in runtime sanitizer (repro.sanitize)."""

from __future__ import annotations

import random
import threading

import pytest

from repro import sanitize


@pytest.fixture(autouse=True)
def _sanitizer_state():
    """Start every test without the sanitizer and leave the process
    exactly as found: these tests install/uninstall it themselves, but a
    session running under REPRO_SANITIZE=1 has it installed globally —
    take it out for the test, restore it afterwards."""
    was_installed = sanitize.installed()
    if was_installed:
        sanitize.uninstall()
    yield
    if sanitize.installed():
        sanitize.uninstall()
    sanitize.reset()
    if was_installed:
        sanitize.install()


def _ambient_call(module_name: str):
    """Call random.random() from a frame whose module is *module_name*."""
    code = "def probe():\n    return random.random()\n"
    globs = {"__name__": module_name, "random": random}
    exec(code, globs)
    return globs["probe"]()


def test_enabled_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize.enabled()
    for val in ("1", "true", "ON"):
        monkeypatch.setenv("REPRO_SANITIZE", val)
        assert sanitize.enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitize.enabled()


def test_install_is_idempotent_and_uninstall_restores():
    original = random.random
    sanitize.install()
    assert sanitize.installed()
    patched = random.random
    assert getattr(patched, "__repro_sanitize__", False)
    sanitize.install()                       # second install: no re-wrap
    assert random.random is patched
    sanitize.uninstall()
    assert random.random is original


def test_ambient_rng_raises_only_for_oracle_paired_callers():
    sanitize.install()
    with pytest.raises(sanitize.AmbientAccessError, match="make_rng"):
        _ambient_call("repro.place.annealer_fake")
    with pytest.raises(sanitize.AmbientAccessError):
        _ambient_call("repro.route.deep.nested")
    # tests, scripts, and non-oracle repro code pass through untouched
    assert isinstance(_ambient_call("tests.test_something"), float)
    assert isinstance(_ambient_call("repro.serve.scheduler"), float)


def test_allow_ambient_escape_hatch():
    sanitize.install()
    with sanitize.allow_ambient():
        assert isinstance(_ambient_call("repro.place.foo"), float)
    with pytest.raises(sanitize.AmbientAccessError):
        _ambient_call("repro.place.foo")


def test_numpy_legacy_singleton_is_guarded():
    np = pytest.importorskip("numpy")
    sanitize.install()
    code = "def probe():\n    return np.random.rand()\n"
    globs = {"__name__": "repro.timing.fake", "np": np}
    exec(code, globs)
    with pytest.raises(sanitize.AmbientAccessError):
        globs["probe"]()
    # default_rng streams stay untouched — that's the sanctioned API
    rng = np.random.default_rng(7)
    assert isinstance(rng.random(), float)


def test_note_write_records_only_unheld_locks():
    sanitize.install()
    lock = threading.Lock()
    with lock:
        sanitize.note_write("unit.guarded", lock)
    assert sanitize.violations() == []
    sanitize.note_write("unit.unguarded", lock)
    (v,) = sanitize.violations()
    assert v["state"] == "unit.unguarded"
    assert v["stack"]
    sanitize.reset()
    assert sanitize.violations() == []


def test_note_write_understands_rlock_and_condition():
    sanitize.install()
    rlock = threading.RLock()
    cond = threading.Condition()
    with rlock:
        sanitize.note_write("unit.rlock", rlock)
    with cond:
        sanitize.note_write("unit.cond", cond)
    assert sanitize.violations() == []
    sanitize.note_write("unit.rlock", rlock)
    sanitize.note_write("unit.cond", cond)
    assert len(sanitize.violations()) == 2


def test_note_write_is_noop_when_not_installed():
    assert not sanitize.installed()
    sanitize.note_write("unit.off", threading.Lock())
    assert sanitize.violations() == []


def test_wired_sites_stay_silent_under_correct_locking(tmp_path):
    """The production call sites (journal, tracer) hold their locks, so a
    sanitized end-to-end write records nothing."""
    from repro.obs import Tracer, span
    from repro.serve import JobSpec, JobStore

    sanitize.install()
    store = JobStore(tmp_path / "farm")
    record = store.submit(JobSpec(model="lenet5", part="small"))
    store.mark_running(record)
    store.close()
    tracer = Tracer()
    with tracer.activate(), span("unit.write"):
        pass
    tracer.finish()
    assert JobStore(tmp_path / "farm").get(record.id).state == "queued"
    assert sanitize.violations() == []
