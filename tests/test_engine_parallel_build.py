"""The build engine and the database builds on it: serial and pooled runs,
fallbacks, determinism, caching, disk persistence, and the default worker
count (one per usable core, serial under threads)."""

import errno
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cnn import group_components, lenet5, vgg16
from repro.engine import BuildCache, Engine, TaskError, TaskSpec
from repro.engine.workers import ComponentFactory
from repro.netlist import Cell, DesignImage, encode_design
from repro.rapidwright import (
    ComponentDatabase,
    PreImplementedFlow,
    explore_component,
    signature_key,
)
from repro.rapidwright.database import build_cache_key
from repro.rapidwright.module import candidate_anchors
from tests.conftest import make_tiny_cnn


def _fingerprints(db: ComponentDatabase) -> dict[str, str]:
    return {k: r.image.metadata()["component"]["integrity"]["sha1"]
            for k, r in db.records.items()}


def _payload_blobs(db: ComponentDatabase) -> dict[str, bytes]:
    """The ``.dcpb`` bytes of every stored checkpoint, keyed by record key."""
    return {k: r.image.to_bytes() for k, r in db.records.items()}


@pytest.fixture(scope="module")
def comps():
    return group_components(make_tiny_cnn(), "layer")


@pytest.fixture
def cores(monkeypatch):
    """Pin the usable-core count the default ``jobs`` resolves against, and
    hide threads other tests may have left running in this process."""

    def pin(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setattr(threading, "active_count", lambda: 1)

    return pin


# Module-level so they survive pickling into pool workers.
def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _sleep_then(value, seconds):
    time.sleep(seconds)
    return value


def _boom():
    raise RuntimeError("kaboom")


def _die_in_worker(parent_pid, value):
    """Kill the worker process it runs in; return *value* in the parent."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return value


def _squares(n: int, cache: BuildCache | None = None) -> list[TaskSpec]:
    return [TaskSpec(f"t{i}", _square, (i,), cache_key=f"square-{i}" if cache else None)
            for i in range(n)]


# -- the engine -----------------------------------------------------------------


def test_duplicate_id_rejected():
    tasks = [TaskSpec("x", _square, (1,)), TaskSpec("x", _square, (2,))]
    with pytest.raises(ValueError, match="duplicate task id 'x'"):
        Engine(jobs=1).run(tasks)


def test_serial_failure_raises_task_error():
    with pytest.raises(TaskError, match="bad"):
        Engine(jobs=1).run([TaskSpec("bad", _boom)])


def test_pooled_failure_raises_task_error():
    with pytest.raises(TaskError, match="kaboom"):
        Engine(jobs=2).run([TaskSpec("bad", _boom)])


def test_pooled_matches_serial():
    tasks = [TaskSpec(f"t{i}", _add, (i, i + 1)) for i in range(6)]
    serial = Engine(jobs=1).run(tasks)
    pooled = Engine(jobs=2).run(tasks)
    assert pooled.results == serial.results == {f"t{i}": 2 * i + 1 for i in range(6)}
    assert pooled.jobs == 2


def test_pooled_runs_in_worker_processes():
    tasks = [TaskSpec(f"t{i}", _sleep_then, (i, 0.05)) for i in range(4)]
    report = Engine(jobs=2).run(tasks)
    assert all(t.worker.startswith("pid:") for t in report.tasks)
    assert report.results == {f"t{i}": i for i in range(4)}


def test_pooled_unpicklable_falls_back_to_serial():
    report = Engine(jobs=2).run([TaskSpec("lam", lambda: 42)])
    assert report.results["lam"] == 42
    assert report.tasks[0].worker == "serial"


def test_dead_worker_falls_back_to_serial():
    tasks = [TaskSpec("die", _die_in_worker, (os.getpid(), "ok")),
             *_squares(3)]
    report = Engine(jobs=2).run(tasks)
    assert report.results == {"die": "ok", "t0": 0, "t1": 1, "t2": 4}
    assert {t.worker for t in report.tasks if t.task_id == "die"} == {"serial"}


def test_telemetry_report_renders():
    report = Engine(jobs=1).run([TaskSpec("a", _add, (1, 1), stage="stage-a")])
    text = report.telemetry()
    assert "stage-a" in text and "a" in text


# -- default worker count -------------------------------------------------------


def test_auto_jobs_caps_at_pending_tasks(cores):
    cores(8)
    cache = BuildCache()
    cache.put("square-0", 0)                     # answered: not pending
    report = Engine(jobs=None, cache=cache).run(_squares(4, cache))
    assert report.jobs == 3
    assert report.results == {f"t{i}": i * i for i in range(4)}
    assert report.tasks[0].worker == "cache"
    assert all(t.worker.startswith("pid:") for t in report.tasks[1:])


def test_auto_jobs_one_pending_task_runs_serially_without_fork(cores, monkeypatch):
    cores(8)

    def no_fork():
        raise AssertionError("forked for a single task")

    monkeypatch.setattr(os, "fork", no_fork)
    report = Engine(jobs=None).run(_squares(1))
    assert report.jobs == 1
    assert [t.worker for t in report.tasks] == ["serial"]


def test_auto_jobs_is_serial_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        report = Engine(jobs=None).run(_squares(4))
    finally:
        stop.set()
        thread.join()
    assert report.jobs == 1
    assert {t.worker for t in report.tasks} == {"serial"}
    assert report.results == {f"t{i}": i * i for i in range(4)}


def test_default_jobs_builds_lenet_in_workers_byte_identical(small_device, cores):
    cores(2)
    lenet = group_components(lenet5(), "layer")
    serial = ComponentDatabase(small_device)
    serial.build(lenet, effort="low", seed=0, jobs=1)
    pooled = ComponentDatabase(small_device)
    pooled.build(lenet, effort="low", seed=0)
    report = pooled.last_build_report
    assert report.jobs == 2
    assert all(t.worker.startswith("pid:") for t in report.tasks)
    assert _payload_blobs(pooled) == _payload_blobs(serial)


def test_workers_module_imports_everything_a_build_imports():
    """Workers fork warm: once the parent has imported the worker module, a
    component build imports nothing more — not in a forked worker, and not
    in the parent's own online phase afterwards."""
    code = textwrap.dedent("""
        import json, sys
        import repro.engine.workers as workers
        from repro.cnn import group_components, lenet5
        from repro.fabric import Device
        device = Device.from_name("small")
        component = group_components(lenet5(), "layer")[0]
        before = set(sys.modules)
        workers.build_component(component, device, effort="low")
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_pool_that_cannot_start_builds_serially(small_device, comps, monkeypatch):
    serial = ComponentDatabase(small_device)
    serial.build(comps, rom_weights=True, effort="low", seed=0, jobs=1)

    def refuse(self):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", refuse)
    fallback = ComponentDatabase(small_device)
    fallback.build(comps, rom_weights=True, effort="low", seed=0, jobs=2)
    assert _payload_blobs(fallback) == _payload_blobs(serial)
    assert {t.worker for t in fallback.last_build_report.tasks} == {"serial"}


# -- determinism ---------------------------------------------------------------


def test_parallel_build_bit_identical_to_serial(small_device, comps):
    serial = ComponentDatabase(small_device)
    serial.build(comps, rom_weights=True, effort="low", seed=0, jobs=1)
    parallel = ComponentDatabase(small_device)
    parallel.build(comps, rom_weights=True, effort="low", seed=0, jobs=2)
    assert set(serial.records) == set(parallel.records)
    assert _payload_blobs(serial) == _payload_blobs(parallel)
    for key in serial.records:
        assert serial.records[key].fmax_mhz == parallel.records[key].fmax_mhz
        assert serial.records[key].signature == parallel.records[key].signature


def test_vgg16_block_library_pooled_byte_identical(big_device, cores):
    """The paper's VGG-16 library (12 block checkpoints, streamed weights,
    high effort) is the same bytes from the default pool as from one process."""
    cores(2)
    blocks = group_components(vgg16(), "block")
    serial = ComponentDatabase(big_device)
    serial.build(blocks, rom_weights=False, effort="high", seed=0, jobs=1)
    pooled = ComponentDatabase(big_device)
    pooled.build(blocks, rom_weights=False, effort="high", seed=0)
    assert len(serial) == 12 and pooled.last_build_report.jobs == 2
    assert _payload_blobs(pooled) == _payload_blobs(serial)


def test_build_telemetry_attached(small_device, comps):
    db = ComponentDatabase(small_device)
    timer = db.build(comps, rom_weights=True, effort="low", seed=0, jobs=2)
    report = db.last_build_report
    assert report is not None and report.jobs == 2
    assert len(report.tasks) == len({c.signature for c in comps})
    assert {t.task_id for t in report.tasks} == set(db.records)
    # stage accounting is StageTimer-compatible and covers every kind
    assert timer.total > 0.0
    assert "build/wall" in timer.stages
    for comp in comps:
        assert f"build:{comp.kind}" in timer.stages


# -- warm cache ----------------------------------------------------------------


def test_warm_cache_rebuild_hits_everything(small_device, comps, tmp_path):
    cache = BuildCache(directory=tmp_path / "cache")
    cold = ComponentDatabase(small_device)
    cold.build(comps, rom_weights=True, effort="low", seed=0, cache=cache)
    assert cache.stats.puts == len(cold)

    warm = ComponentDatabase(small_device)
    timer = warm.build(comps, rom_weights=True, effort="low", seed=0, cache=cache)
    report = warm.last_build_report
    assert report.hit_count == len(warm) and report.miss_count == 0
    assert _payload_blobs(warm) == _payload_blobs(cold)
    # no component was re-implemented
    assert sum(t.run_s for t in report.tasks) == 0.0
    assert timer.total == 0.0


def test_cache_key_covers_build_options(small_device, comps):
    sig = comps[0].signature
    base = build_cache_key(sig, small_device, effort="low", seed=0)
    assert base == build_cache_key(sig, small_device, effort="low", seed=0)
    assert base != build_cache_key(sig, small_device, effort="high", seed=0)
    assert base != build_cache_key(sig, small_device, effort="low", seed=1)
    assert base != build_cache_key(sig, small_device, effort="low", seed=0,
                                   plan_ports=False)
    assert base != build_cache_key(sig, small_device, effort="low", seed=0,
                                   explore={"seeds": (0, 1)})


# -- signature round-trip (regression: reloaded DB used to never hit) ---------


def test_reloaded_database_hits_by_signature(small_device, comps, tmp_path, monkeypatch):
    db = ComponentDatabase(small_device, directory=tmp_path / "db")
    db.build(comps, rom_weights=True, effort="low", seed=0)

    # Reloading builds no design.  Both ways a Cell comes to be are watched:
    # the constructor (__init__: a class whose __new__ was set and deleted
    # refuses arguments afterwards) and materialize, which bypasses it.
    made = []
    monkeypatch.setattr(Cell, "__init__", lambda self, *a, **k: made.append(self))
    monkeypatch.setattr(DesignImage, "materialize", lambda self, *a, **k: made.append(self))
    reloaded = ComponentDatabase(small_device, directory=tmp_path / "db")
    assert reloaded.load_directory() == len(db)
    assert made == []
    monkeypatch.undo()

    assert _fingerprints(reloaded) == _fingerprints(db)
    for comp in comps:
        sig = comp.signature
        assert reloaded.has(sig)
        assert reloaded.records[signature_key(sig)].signature == sig
        foot = reloaded.footprint(sig)
        assert foot.pblock == db.footprint(sig).pblock
        anchor = candidate_anchors(small_device, foot)[-1]
        assert encode_design(reloaded.fetch(sig, anchor, instance="u0")) == \
            encode_design(db.fetch(sig, anchor, instance="u0"))


def test_directory_files_identical_serial_parallel_and_cache_served(small_device, comps, tmp_path):
    cache = BuildCache(directory=tmp_path / "cache")
    built = {}
    for how, kwargs in (("serial", {}), ("jobs2", {"jobs": 2}),
                        ("cold", {"cache": cache}), ("warm", {"cache": cache})):
        built[how] = ComponentDatabase(small_device, directory=tmp_path / how)
        built[how].build(comps, rom_weights=True, effort="low", seed=0, **kwargs)
    assert built["warm"].last_build_report.miss_count == 0
    serial = built["serial"]
    files = {p.name: p.read_bytes() for p in (tmp_path / "serial").iterdir()}
    assert files == {f"{k}.dcpb": blob for k, blob in _payload_blobs(serial).items()}
    for how, db in built.items():
        assert {p.name: p.read_bytes() for p in (tmp_path / how).iterdir()} == files
        assert _fingerprints(db) == _fingerprints(serial)


def test_signature_key_canonical_numeric_types():
    assert signature_key(("conv", 1, 2)) == signature_key(
        ("conv", np.int64(1), np.int64(2))
    )
    assert signature_key(("conv", (1, 2))) == signature_key(("conv", [1, 2]))
    assert signature_key(("conv", 1)) != signature_key(("conv", 2))


def test_put_records_exact_signature_in_metadata(small_device, comps):
    db = ComponentDatabase(small_device)
    db.build(comps[:1], rom_weights=True, effort="low", seed=0)
    record = db.records[signature_key(comps[0].signature)]
    stored = record.image.metadata()["component"]["signature"]
    # JSON-shaped (nested lists), loss-free relative to the tuple form
    assert json.loads(json.dumps(stored)) == stored
    from repro.rapidwright.database import _signature_from_json

    assert _signature_from_json(stored) == comps[0].signature


# -- full flow from disk hits --------------------------------------------------


def test_run_accelerator_entirely_from_disk(small_device, tmp_path):
    net = make_tiny_cnn()
    comps = group_components(net, "layer")
    built = ComponentDatabase(small_device, directory=tmp_path / "db")
    built.build(comps, rom_weights=True, effort="low", seed=0, jobs=2)

    reloaded = ComponentDatabase(small_device, directory=tmp_path / "db")
    assert reloaded.load_directory() == len(built)

    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    result = flow.run(net, rom_weights=True, database=reloaded)
    assert result.extras["offline_s"] == 0.0          # nothing re-implemented
    assert reloaded.total_hits == len(comps)          # every component from disk
    assert result.fmax_mhz > 0.0


# -- parallel explore ----------------------------------------------------------


def test_explore_jobs_matches_serial(small_device, comps):
    factory = ComponentFactory(comps[0], rom_weights=True)
    serial = explore_component(
        factory, small_device, seeds=(0, 1), efforts=("low",), slacks=(1.1, 1.3)
    )
    pooled = explore_component(
        factory, small_device, seeds=(0, 1), efforts=("low",), slacks=(1.1, 1.3),
        jobs=2,
    )
    assert [t.score for t in pooled.trials] == [t.score for t in serial.trials]
    assert pooled.best_trial == serial.best_trial
    assert pooled.best.fmax_mhz == serial.best.fmax_mhz


def test_explore_jobs_with_unpicklable_factory_falls_back(small_device, comps):
    comp = comps[0]
    result = explore_component(
        lambda: ComponentFactory(comp)(), small_device,
        seeds=(0,), efforts=("low",), jobs=2,
    )
    assert len(result.trials) == 1
    assert result.best.fmax_mhz > 0.0


def test_explore_early_exit_truncates_identically(small_device, comps):
    factory = ComponentFactory(comps[0], rom_weights=True)
    kwargs = dict(seeds=(0, 1, 2), efforts=("low",), target_fmax_mhz=1.0)
    serial = explore_component(factory, small_device, **kwargs)
    pooled = explore_component(factory, small_device, jobs=2, **kwargs)
    # target is trivially met by the first trial: both record exactly one
    assert len(serial.trials) == len(pooled.trials) == 1
