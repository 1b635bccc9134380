"""Cross-flow determinism and seed sensitivity.

The library's contract: a flow run is a pure function of
``(design, seed)``.  These tests pin that down for both flows and for the
OOC/database path, and check that *different* seeds actually explore
different implementations (otherwise the exploration extension would be
pointless).
"""

import pytest

from repro.obs import InMemorySink, Tracer, canonical_tree_blob
from repro.rapidwright import ComponentDatabase, PreImplementedFlow
from repro.vivado import VivadoFlow
from tests.conftest import make_tiny_cnn


def _placements(design):
    return {name: cell.placement for name, cell in design.cells.items()}


def _routes(design):
    return {
        name: net.routes for name, net in design.nets.items() if not net.is_clock
    }


def test_baseline_flow_deterministic(small_device):
    a = VivadoFlow(small_device, effort="low", seed=11).run(make_tiny_cnn())
    b = VivadoFlow(small_device, effort="low", seed=11).run(make_tiny_cnn())
    assert a.fmax_mhz == pytest.approx(b.fmax_mhz)
    assert _placements(a.design) == _placements(b.design)
    assert _routes(a.design) == _routes(b.design)
    assert a.power.total_w == pytest.approx(b.power.total_w)


def test_baseline_flow_seed_sensitive(small_device):
    a = VivadoFlow(small_device, effort="low", seed=1).run(make_tiny_cnn())
    b = VivadoFlow(small_device, effort="low", seed=2).run(make_tiny_cnn())
    assert _placements(a.design) != _placements(b.design)


def test_preimplemented_flow_deterministic(small_device):
    results = []
    for _ in range(2):
        flow = PreImplementedFlow(small_device, component_effort="low", seed=5)
        results.append(flow.run(make_tiny_cnn()))
    a, b = results
    assert a.fmax_mhz == pytest.approx(b.fmax_mhz)
    assert _placements(a.design) == _placements(b.design)
    anchors_a = [r.anchor for r in a.extras["stitch"].records]
    anchors_b = [r.anchor for r in b.extras["stitch"].records]
    assert anchors_a == anchors_b


def _traced_run(small_device, *, jobs: int):
    """One pre-implemented flow run, library build included, under a
    tracer; returns its events."""
    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.activate():
        flow = PreImplementedFlow(small_device, component_effort="low", seed=5)
        flow.run(make_tiny_cnn(), jobs=jobs)
    tracer.finish()
    return sink.events


def test_trace_span_tree_deterministic_same_seed(small_device):
    """Same seed, same jobs => byte-identical canonical span tree."""
    a = _traced_run(small_device, jobs=1)
    b = _traced_run(small_device, jobs=1)
    assert canonical_tree_blob(a) == canonical_tree_blob(b)


def test_trace_span_tree_serial_parallel_equal(small_device):
    """The span tree (names + attrs, timings excluded) must not depend on
    whether component builds ran in-process or in a worker pool."""
    serial = _traced_run(small_device, jobs=1)
    parallel = _traced_run(small_device, jobs=2)
    assert canonical_tree_blob(serial) == canonical_tree_blob(parallel)


def test_database_checkpoints_independent_of_consumer(small_device):
    """Two flows sharing one database must not perturb each other: the
    checkpoint copies handed out are isolated."""
    flow = PreImplementedFlow(small_device, component_effort="low", seed=3)
    first = flow.run(make_tiny_cnn())
    db = first.extras["database"]
    # mutate the first result's design aggressively
    for cell in first.design.cells.values():
        cell.placement = (0, 0)
    second = flow.run(make_tiny_cnn(), database=db)
    assert second.design.validate(small_device) is None  # still legal
    assert second.fmax_mhz > 0


def test_checkpoint_database_round_trip_preserves_fmax(small_device, tmp_path):
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    lib = tmp_path / "lib"
    db = ComponentDatabase(small_device, directory=lib)
    flow.run(make_tiny_cnn(), database=db)
    fresh = ComponentDatabase(small_device, directory=lib)
    assert flow.run(make_tiny_cnn(), database=fresh).extras["offline_s"] == 0.0
    assert len(fresh) == len(db)
    for record in db.records.values():
        assert fresh.fmax_of(record.signature) == pytest.approx(db.fmax_of(record.signature))
