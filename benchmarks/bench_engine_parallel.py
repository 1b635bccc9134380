"""Engine scaling — parallel database build and warm-cache rebuild.

The productivity claim (paper Sec. V / Fig. 6) treats the
function-optimization phase as paid once, offline.  This benchmark
measures how the :mod:`repro.engine` task-graph executor amortizes that
cost on a VGG-16-sized component set:

* ``jobs=4`` wall clock vs ``jobs=1`` (target: ≤ 0.6× on a multi-core
  host — on fewer cores the ratio is reported but not asserted);
* a warm content-addressed cache rebuild vs the cold build (target:
  ≥ 10× faster);
* parallel and serial builds produce identical checkpoint payloads
  (asserted unconditionally — determinism is the correctness bar).
"""

import os
import time

import pytest

from repro import Device, vgg16
from repro.cnn import group_components
from repro.engine import BuildCache
from repro.rapidwright import ComponentDatabase

from conftest import show

SEED = 0
EFFORT = "high"


@pytest.fixture(scope="module")
def workload():
    device = Device.from_name("ku5p-like")
    components = group_components(vgg16(), "block")
    return device, components


def _build(device, components, *, jobs, cache=None):
    database = ComponentDatabase(device)
    start = time.perf_counter()
    database.build(
        components, rom_weights=False, effort=EFFORT, seed=SEED, jobs=jobs, cache=cache
    )
    return database, time.perf_counter() - start


def _payload_blobs(database):
    return {k: r.image.to_bytes() for k, r in database.records.items()}


def test_parallel_build_speedup(workload):
    device, components = workload
    serial_db, serial_s = _build(device, components, jobs=1)
    parallel_db, parallel_s = _build(device, components, jobs=4)

    ratio = parallel_s / serial_s if serial_s else float("inf")
    cores = os.cpu_count() or 1
    show(
        f"VGG-16 component set: {len(serial_db)} unique checkpoints\n"
        f"  jobs=1 wall {serial_s:7.2f} s\n"
        f"  jobs=4 wall {parallel_s:7.2f} s   ({ratio:.2f}x of serial, "
        f"{cores} cores available)"
    )

    # determinism: bit-identical checkpoints whatever the schedule
    assert _payload_blobs(serial_db) == _payload_blobs(parallel_db)
    if cores >= 4:
        assert parallel_s <= 0.6 * serial_s
    elif cores == 1:
        show("  (single-core host: speedup target not assertable)")


def test_warm_cache_rebuild(workload, tmp_path):
    device, components = workload
    cache = BuildCache(directory=tmp_path / "cache")
    cold_db, cold_s = _build(device, components, jobs=1, cache=cache)
    warm_db, warm_s = _build(device, components, jobs=1, cache=cache)

    report = warm_db.last_build_report
    show(
        f"warm-cache rebuild: cold {cold_s:.2f} s -> warm {warm_s:.3f} s "
        f"({cold_s / max(warm_s, 1e-9):.0f}x), "
        f"{report.hit_count} hit / {report.miss_count} miss"
    )
    assert report.hit_count == len(cold_db) and report.miss_count == 0
    assert _payload_blobs(warm_db) == _payload_blobs(cold_db)
    assert warm_s * 10 <= cold_s
