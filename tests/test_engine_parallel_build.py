"""The build engine and the database builds on it: serial and pooled runs,
fallbacks, determinism, the on-disk component library, and the default
worker count (one per usable core, serial under threads)."""

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
from repro.drc import run_drc
from repro.engine import Engine, TaskError, TaskSpec
from repro.netlist import Cell, DesignImage, encode_design
from repro.obs import Tracer
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


def _squares(n: int) -> list[TaskSpec]:
    return [TaskSpec(f"t{i}", _square, (i,)) for i in range(n)]


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
    report = Engine(jobs=None).run(_squares(3))
    assert report.jobs == 3
    assert report.results == {f"t{i}": i * i for i in range(3)}
    assert all(t.worker.startswith("pid:") for t in report.tasks)


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
    report = pooled.build(lenet, effort="low", seed=0)
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
    report = fallback.build(comps, rom_weights=True, effort="low", seed=0, jobs=2)
    assert _payload_blobs(fallback) == _payload_blobs(serial)
    assert {t.worker for t in report.tasks} == {"serial"}


# -- determinism ---------------------------------------------------------------


def test_parallel_build_bit_identical_to_serial(small_device, comps):
    serial = ComponentDatabase(small_device)
    serial.build(comps, rom_weights=True, effort="low", seed=0, jobs=1)
    parallel = ComponentDatabase(small_device)
    parallel.build(comps, rom_weights=True, effort="low", seed=0, jobs=2)
    assert set(serial.records) == set(parallel.records)
    assert _payload_blobs(serial) == _payload_blobs(parallel)
    for key, record in serial.records.items():
        assert serial.fmax_of(record.signature) == parallel.fmax_of(record.signature)
        assert record.signature == parallel.records[key].signature


def test_vgg16_block_library_pooled_byte_identical(big_device, cores, monkeypatch):
    """The paper's VGG-16 library (12 block checkpoints, streamed weights,
    high effort) is the same bytes from the default pool as from one process,
    filed in the same order — though the pool is handed the largest build,
    the conv5 block, first (in network order it started last)."""
    import repro.rapidwright.database as database

    cores(2)
    blocks = group_components(vgg16(), "block")
    serial = ComponentDatabase(big_device)
    serial.build(blocks, rom_weights=False, effort="high", seed=0, jobs=1)
    submitted, run = [], database.Engine.run

    def recording(engine, tasks):
        submitted.append([task.args[0].name for task in tasks])
        return run(engine, tasks)

    monkeypatch.setattr(database.Engine, "run", recording)
    pooled = ComponentDatabase(big_device)
    report = pooled.build(blocks, rom_weights=False, effort="high", seed=0)
    assert len(serial) == 12 and report.jobs == 2
    ((first, *rest),) = submitted
    assert first == "comp8_conv5_1" and sorted(rest) == sorted(
        b.name for b in blocks if b.name != first)
    assert list(pooled.records) == list(serial.records)
    assert _payload_blobs(pooled) == _payload_blobs(serial)


def test_build_telemetry_attached(small_device, comps):
    db = ComponentDatabase(small_device)
    report = db.build(comps, rom_weights=True, effort="low", seed=0, jobs=2)
    assert report.jobs == 2
    assert len(report.tasks) == len({c.signature for c in comps})
    assert {t.task_id for t in report.tasks} == set(db.records)
    # the offline cost is the summed task run time; every kind has a task
    assert report.run_s == sum(t.run_s for t in report.tasks) > 0.0
    assert report.wall_s > 0.0
    assert {t.stage for t in report.tasks} == {f"build:{c.kind}" for c in comps}


# -- the component library -------------------------------------------------------


def test_warm_cache_rebuild_hits_everything(small_device, comps, tmp_path):
    cold = ComponentDatabase(small_device, directory=tmp_path / "lib")
    cold.build(comps, rom_weights=True, effort="low", seed=0)
    assert len(list((tmp_path / "lib").iterdir())) == len(cold)

    warm = ComponentDatabase(small_device, directory=tmp_path / "lib")
    tracer = Tracer()
    with tracer.activate():
        report = warm.build(comps, rom_weights=True, effort="low", seed=0)
    assert tracer.metrics.counter("library.hit").value == len(warm) == len(cold)
    assert report.tasks == []
    assert _payload_blobs(warm) == _payload_blobs(cold)
    # no component was re-implemented
    assert report.run_s == 0.0


def test_cache_key_covers_build_options(small_device, comps):
    comp = comps[0]
    base = build_cache_key(comp, small_device, effort="low", seed=0)
    assert base == build_cache_key(comp, small_device, effort="low", seed=0)
    assert base != build_cache_key(comp, small_device, effort="high", seed=0)
    assert base != build_cache_key(comp, small_device, effort="low", seed=1)
    assert base != build_cache_key(comp, small_device, effort="low", seed=0,
                                   plan_ports=False)
    assert base != build_cache_key(comp, small_device, effort="low", seed=0,
                                   explore={"seeds": (0, 1)})


def _spy(monkeypatch, module, name: str) -> list:
    """Record the first argument of every call of ``module.name`` in this
    process from now on (builds must run with ``jobs=1``)."""
    calls, real = [], getattr(module, name)

    def spy(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_a_plain_build_is_one_bare_preimplement(small_device, comps, monkeypatch):
    """Without *explore* a library build is the one-point sweep: the bytes
    of a bare ``preimplement`` at the build's effort and seed, with no
    anchor count (a single trial ranks nothing), under the key a plain
    build has always had."""
    import repro.rapidwright.explore as explore
    from repro.rapidwright.database import image_integrity
    from repro.rapidwright.ooc import preimplement
    from repro.synth.generator import generate_component

    counted = _spy(monkeypatch, explore, "candidate_anchors")
    db = ComponentDatabase(small_device)
    db.build(comps, rom_weights=True, effort="low", seed=3, jobs=1)
    assert counted == []
    for comp in comps:
        bare = preimplement(generate_component(comp, rom_weights=True), small_device,
                            effort="low", seed=3, plan_ports=True)
        image = DesignImage.from_bytes(encode_design(bare.design))
        stored = db.records[signature_key(comp.signature)].image
        assert stored.metadata()["component"]["integrity"] == image_integrity(image)
    assert build_cache_key(comps[0], small_device, effort="low", seed=0) == \
        "1f79c8db70894338b4a48e57602550c858bbda06b9006523276f5cb38597b9bc"


def test_an_explored_build_sweeps_the_builds_effort_and_seed(small_device, comps,
                                                             monkeypatch):
    """The build's effort and seed are the sweep's default axes: an
    *explore* that names only a slack is one trial per component at them,
    and the record says so."""
    import repro.rapidwright.explore as explore

    built = _spy(monkeypatch, explore, "preimplement")
    db = ComponentDatabase(small_device)
    db.build(comps, effort="low", seed=5, explore={"slacks": (1.15,)}, jobs=1)
    assert len(built) == len({comp.signature for comp in comps})
    for record in db.records.values():
        ooc = record.image.metadata()["ooc"]
        assert (ooc["effort"], ooc["seed"]) == ("low", 5)


def test_weightless_components_have_one_key_for_both_weight_styles(small_device):
    """The generators read ``rom_weights`` for conv and fc stages only: a
    pool component builds the same bytes either way and is filed under
    one key, while conv and fc keys keep the two styles apart."""
    from repro.engine.workers import build_component

    weightless = 0
    for comp in group_components(lenet5(), "layer"):
        keys = {build_cache_key(comp, small_device, rom_weights=rom, effort="low")
                for rom in (True, False)}
        if comp.weights:
            assert comp.kind in ("conv", "fc") and len(keys) == 2, comp.name
            continue
        weightless += 1
        assert len(keys) == 1, comp.name
        assert build_component(comp, small_device, rom_weights=True, effort="low") == \
            build_component(comp, small_device, rom_weights=False, effort="low")
    assert weightless == 2


# -- signature round-trip (regression: reloaded DB used to never hit) ---------


def test_reloaded_database_hits_by_signature(small_device, comps, tmp_path, monkeypatch):
    db = ComponentDatabase(small_device, directory=tmp_path / "db")
    db.build(comps, rom_weights=True, effort="low", seed=0)

    # Answering from the library builds no design.  Both ways a Cell comes
    # to be are watched: the constructor (__init__: a class whose __new__
    # was set and deleted refuses arguments afterwards) and materialize,
    # which bypasses it.
    made = []
    monkeypatch.setattr(Cell, "__init__", lambda self, *a, **k: made.append(self))
    monkeypatch.setattr(DesignImage, "materialize", lambda self, *a, **k: made.append(self))
    reloaded = ComponentDatabase(small_device, directory=tmp_path / "db")
    assert reloaded.build(comps, rom_weights=True, effort="low", seed=0).tasks == []
    assert len(reloaded) == len(db)
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
    built, reports = {}, {}
    for how, directory, jobs in (("serial", "serial", 1), ("jobs2", "jobs2", 2),
                                 ("library", "serial", 2)):
        built[how] = ComponentDatabase(small_device, directory=tmp_path / directory)
        reports[how] = built[how].build(comps, rom_weights=True, effort="low", seed=0,
                                        jobs=jobs)
    assert reports["library"].tasks == []
    serial = built["serial"]
    files = {p.name: p.read_bytes() for p in (tmp_path / "serial").iterdir()}
    assert files == {f"{r.build_key}.dcpb": r.image.to_bytes() for r in serial.records.values()}
    assert {p.name: p.read_bytes() for p in (tmp_path / "jobs2").iterdir()} == files
    anchors = {c.signature: candidate_anchors(small_device, serial.footprint(c.signature))[-1]
               for c in comps}
    probe = serial.fetch(comps[0].signature, anchors[comps[0].signature])
    verdicts = set()
    for db in built.values():
        assert _payload_blobs(db) == _payload_blobs(serial)
        assert _fingerprints(db) == _fingerprints(serial)
        assert [encode_design(db.fetch(sig, anchor, instance="u0"))
                for sig, anchor in anchors.items()] == \
            [encode_design(serial.fetch(sig, anchor, instance="u0"))
             for sig, anchor in anchors.items()]
        report = run_drc(probe, database=db, rules=["DB-001", "DB-002", "DB-003"])
        verdicts.add(tuple((v.rule_id, v.message) for v in report.violations))
    assert verdicts == {()}


def test_signature_key_canonical_numeric_types():
    assert signature_key(("conv", 1, 2)) == signature_key(
        ("conv", np.int64(1), np.int64(2))
    )
    assert signature_key(("conv", (1, 2))) == signature_key(("conv", [1, 2]))
    assert signature_key(("conv", 1)) != signature_key(("conv", 2))


def test_library_files_are_replaced_whole_or_not_at_all(
        small_device, comps, tmp_path, monkeypatch):
    """A ``.dcpb`` lands by an atomic rename of a complete temp file: a
    build killed while writing leaves the previous file, never a torn one."""
    lib = tmp_path / "db"
    ComponentDatabase(small_device, directory=lib).build(
        comps, rom_weights=True, effort="low", seed=0, jobs=1)
    before = {p.name: p.read_bytes() for p in lib.iterdir()}

    class Killed(BaseException):
        pass

    def killed(src, dst):
        raise Killed

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(Killed):
        ComponentDatabase(small_device, directory=lib).build(
            comps, rom_weights=True, effort="high", seed=0, jobs=1)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in lib.iterdir()} == before
    assert ComponentDatabase(small_device, directory=lib).build(
        comps, rom_weights=True, effort="low", seed=0, jobs=1).tasks == []


def test_put_records_exact_signature_in_metadata(small_device, comps):
    db = ComponentDatabase(small_device)
    db.build(comps[:1], rom_weights=True, effort="low", seed=0)
    record = db.records[signature_key(comps[0].signature)]
    stored = record.image.metadata()["component"]["signature"]
    # JSON-shaped (nested lists) with the same items as the tuple form
    assert json.loads(json.dumps(stored)) == stored
    from repro.engine.cache import canonical

    assert stored == canonical(comps[0].signature)


# -- full flow from disk hits --------------------------------------------------


def test_run_accelerator_entirely_from_disk(small_device, tmp_path):
    net = make_tiny_cnn()
    comps = group_components(net, "layer")
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    fresh = flow.run(net, rom_weights=True,
                     database=ComponentDatabase(small_device, directory=tmp_path / "db"))
    assert fresh.extras["offline_s"] > 0.0

    tracer = Tracer()
    with tracer.activate():
        result = flow.run(net, rom_weights=True,
                          database=ComponentDatabase(small_device, directory=tmp_path / "db"))
    assert result.extras["offline_s"] == 0.0          # nothing re-implemented
    # every component from disk
    assert tracer.metrics.counter("library.hit").value == len(result.extras["database"])
    assert tracer.metrics.counter("codec.fetch").value == len(comps)
    assert result.fmax_mhz > 0.0
    assert encode_design(result.design) == encode_design(fresh.design)


# -- parallel explore ----------------------------------------------------------


def test_explore_jobs_matches_serial(small_device, comps):
    serial = explore_component(
        comps[0], small_device, seeds=(0, 1), effort="low", slacks=(1.1, 1.3)
    )
    pooled = explore_component(
        comps[0], small_device, seeds=(0, 1), effort="low", slacks=(1.1, 1.3),
        jobs=2,
    )
    assert [t.score for t in pooled.trials] == [t.score for t in serial.trials]
    assert pooled.best_trial == serial.best_trial
    assert pooled.best.fmax_mhz == serial.best.fmax_mhz


def test_explore_early_exit_truncates_identically(small_device, comps):
    kwargs = dict(seeds=(0, 1, 2), effort="low", target_fmax_mhz=1.0)
    serial = explore_component(comps[0], small_device, **kwargs)
    pooled = explore_component(comps[0], small_device, jobs=2, **kwargs)
    # target is trivially met by the first trial: both record exactly one
    assert len(serial.trials) == len(pooled.trials) == 1
