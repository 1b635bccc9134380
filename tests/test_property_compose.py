"""Property tests for the single-pass online phase.

:func:`repro.rapidwright.stitcher.compose` materializes every component
once — anchored, instance-named, adopted into the top design — where
:func:`~repro.rapidwright.stitcher.compose_reference` fetches a copy,
relocates it through the checkpoint codec and clones it into the top
under new names.  Hypothesis over random chains of real pre-implemented
components at random anchors: both must produce the same ``.dcpb``
bytes, records, stitch nets and metadata, or fail with the same error
(overlapping sites, an illegal anchor, a missing anchor).  The placement
view the component placer works from (``ComponentDatabase.footprint``)
must equal the one derived from a live copy.

One level down, :meth:`repro.fabric.interconnect.RoutingGraph.
path_metrics_batch` is checked against the scalar walk it replaces on
the cold-compile path.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnn import group_components
from repro.fabric import Device, PBlock
from repro.fabric.interconnect import HEX_REACH, RoutingGraph
from repro.netlist.block import sealed
from repro.netlist.codec import encode_design
from repro.netlist.design import Design, DesignError
from repro.rapidwright import ComponentDatabase, ComponentPlacer
from repro.rapidwright.module import Footprint, candidate_anchors
from repro.rapidwright.stitcher import compose, compose_reference
from tests.conftest import make_tiny_cnn

SMALL = Device.from_name("small")
GRAPH = RoutingGraph(SMALL)


@functools.cache
def _library():
    """The tiny CNN's components, pre-implemented once per session."""
    comps = group_components(make_tiny_cnn(), "layer")
    database = ComponentDatabase(SMALL)
    database.build(comps, rom_weights=True, effort="low", seed=0)
    # routed and locked throughout: compose() keeps every instance as a
    # placed block, so what is compared below is the columnar path
    assert all(sealed(record.image) for record in database.records.values())
    return database, comps


def _outcome(fn):
    """Everything a composition produces, or the shape of its failure."""
    try:
        result = fn()
    except DesignError as exc:  # RelocationError included
        return ("error", type(exc).__name__, str(exc))
    return (
        "ok",
        encode_design(result.top),
        result.records,
        result.stitch_nets,
        result.pruned_nets,
        result.top.metadata,
    )


# -- compose ≡ compose_reference ----------------------------------------------


@st.composite
def chains(draw):
    """A random chain of library components and an anchor for each.

    Anchors are drawn from each component's legal candidates, preferring
    ones whose pblock is clear of those already chosen (so most chains
    compose); *fault* then breaks the map in one of the ways ``compose``
    must diagnose exactly like the reference.
    """
    database, comps = _library()
    picks = draw(st.lists(st.integers(0, len(comps) - 1), min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 10_000)))
    fault = draw(st.sampled_from(["none", "none", "none", "home", "crowd",
                                  "off_device", "bad_column", "missing"]))
    chain = [replace(comps[p], name=f"u{k}_{comps[p].name}") for k, p in enumerate(picks)]
    anchors: dict[str, tuple[int, int]] = {}
    taken: list[PBlock] = []
    for comp in chain:
        base = database.footprint(comp.signature).pblock
        options = candidate_anchors(SMALL, database.footprint(comp.signature))
        rng.shuffle(options)
        if fault == "home" and not taken:
            options.insert(0, (base.col0, base.row0))  # zero-offset move
        for col, row in options:
            pblock = PBlock(col, row, col + base.width - 1, row + base.height - 1)
            if fault == "crowd" or not any(pblock.overlaps(t) for t in taken):
                break
        anchors[comp.name] = (col, row)
        taken.append(pblock)
    victim = chain[rng.randrange(len(chain))].name
    if fault == "off_device":
        anchors[victim] = (SMALL.ncols + 10, 0)
    elif fault == "bad_column":
        anchors[victim] = (int(SMALL.io_columns[0]), 0)
    elif fault == "missing":
        del anchors[victim]
    return chain, anchors


@given(chains())
@settings(max_examples=40, deadline=None)
def test_single_pass_compose_matches_reference(case):
    chain, anchors = case
    database, _ = _library()
    fast = _outcome(lambda: compose("top", chain, database, SMALL, anchors))
    ref = _outcome(lambda: compose_reference("top", chain, database, SMALL, anchors))
    assert fast == ref


def test_placed_chain_composes_identically():
    """The flow's own anchors: the full chain must succeed on both paths."""
    database, comps = _library()
    items = [(c.name, database.footprint(c.signature)) for c in comps]
    placement = ComponentPlacer(SMALL).place(
        items, [(i - 1, i) for i in range(1, len(items))]
    )
    fast = _outcome(lambda: compose("t", comps, database, SMALL, placement.anchors))
    ref = _outcome(lambda: compose_reference("t", comps, database, SMALL, placement.anchors))
    assert fast[0] == "ok" and fast == ref


def test_adopted_objects_are_owned_by_the_top():
    """Adoption moves the instance's objects; the donor keeps none."""
    database, comps = _library()
    comp = comps[0]
    home = database.footprint(comp.signature).pblock
    module = database.fetch(comp.signature, (home.col0, home.row0), instance="inst")
    cells = dict(module.cells)
    top = Design("top")
    portmap = top.adopt(module)
    assert not module.cells and not module.nets
    assert all(top.cells[name] is cell for name, cell in cells.items())
    assert all(name.startswith("inst/") for name in top.cells)
    assert all(cell.module == "inst" for cell in top.cells.values())
    assert set(portmap.values()) <= set(top.nets)
    again = database.fetch(comp.signature, (home.col0, home.row0), instance="inst")
    with pytest.raises(DesignError, match="duplicate cell"):
        top.adopt(again)


def test_footprint_from_template_equals_footprint_of_copy():
    database, comps = _library()
    for comp in comps:
        lean = database.footprint(comp.signature)
        full = Footprint.of(database.get(comp.signature))
        assert (lean.name, lean.pblock, lean.used_offsets, lean.pin_tiles,
                lean.column_signature) == (
            full.name, full.pblock, full.used_offsets, full.pin_tiles,
            full.column_signature)
        assert np.array_equal(lean.rel_sites, full.rel_sites)
        assert lean.rel_sites.dtype == full.rel_sites.dtype
        for strict in (False, True):
            assert candidate_anchors(SMALL, lean, strict=strict) == \
                candidate_anchors(SMALL, database.get(comp.signature), strict=strict)


# -- path_metrics_batch ≡ scalar walk -------------------------------------------


@st.composite
def node_paths(draw):
    """Wire-shaped paths (single and hex hops, so I/O columns get jumped)
    mixed with arbitrary node lists, lengths from 1 up."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    nrows, ncols = SMALL.nrows, SMALL.ncols
    paths = []
    for _ in range(draw(st.integers(0, 12))):
        if rng.random() < 0.3:
            n = rng.choice((1, 1, 2, rng.randint(3, 8)))
            paths.append([rng.randrange(GRAPH.n_nodes) for _ in range(n)])
            continue
        col, row = rng.randrange(ncols), rng.randrange(nrows)
        path = [col * nrows + row]
        for _ in range(rng.choice((0, 1, rng.randint(2, 14)))):
            step = rng.choice((1, HEX_REACH)) * rng.choice((-1, 1))
            if rng.random() < 0.7:
                col = min(max(col + step, 0), ncols - 1)
            else:
                row = min(max(row + step, 0), nrows - 1)
            path.append(col * nrows + row)
        paths.append(path)
    return paths


@given(node_paths())
@settings(max_examples=60, deadline=None)
def test_path_metrics_batch_matches_scalar_walk(paths):
    tiles, crossings = GRAPH.path_metrics_batch(paths)
    assert tiles.dtype == crossings.dtype == np.int64
    assert list(zip(tiles.tolist(), crossings.tolist())) == [
        GRAPH.path_metrics(p) for p in paths
    ]


def test_path_metrics_batch_edges():
    tiles, crossings = GRAPH.path_metrics_batch([])
    assert tiles.size == 0 and crossings.size == 0
    io = int(SMALL.io_columns[0])
    hop = [(io - 1) * SMALL.nrows, (io + 1) * SMALL.nrows]
    assert GRAPH.path_metrics(hop) == (2, 1)
    tiles, crossings = GRAPH.path_metrics_batch([hop, hop[:1], hop[::-1]])
    assert tiles.tolist() == [2, 0, 2] and crossings.tolist() == [1, 0, 1]
    with pytest.raises(IndexError):
        GRAPH.path_metrics_batch([hop, []])  # the scalar walk raises too
