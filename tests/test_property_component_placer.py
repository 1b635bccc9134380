"""Property tests for the component placer's array ranking.

:meth:`repro.rapidwright.placer.ComponentPlacer._rank` scores every
anchor of an item as columns; the scalar
:meth:`~repro.rapidwright.placer.ComponentPlacer._cost` — one candidate,
one pblock, Python floats — is its oracle and stays the pick-time
re-check.  :func:`rank_per_candidate` below is the loop ``_rank`` used to
be; Hypothesis over random footprints (with and without partition pins,
so both the integer and the half-row port points occur), random partial
placements and arbitrary connection lists asserts the two rankings equal
element for element: the same floats, the same order under ties, the
same pblocks, overlapping ("currently blocked") candidates included.  A
whole search over either ranking — on a part tight enough to backtrack —
must take the same path: anchors, costs, attempts, backtracks.  The
halo, the weights, the candidate cap and the size up to which every
(placed, candidate) congestion pair is scored are module constants,
which the cases vary by patching them.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fabric import Device, PBlock
from repro.rapidwright import placer as placer_module
from repro.rapidwright.module import Footprint, candidate_anchors
from repro.rapidwright.placer import ComponentPlacer, PlacementInfeasible

TINY = Device.from_name("tiny")
SMALL = Device.from_name("small")


def rank_per_candidate(placer, idx, anchors, items, connections, placed):
    """The ranking as one ``_cost`` call per candidate (the oracle)."""
    base = items[idx][1].pblock
    scored = []
    for col, row in anchors:
        pblock = PBlock(col, row, col + base.width - 1, row + base.height - 1)
        if not pblock.within(placer.device):
            continue
        timing, congestion = placer._cost(idx, pblock, items, connections, placed)
        total = (placer_module.TIMING_WEIGHT * timing
                 + placer_module.CONGESTION_WEIGHT * congestion)
        scored.append((total, timing, congestion, pblock))
    scored.sort(key=lambda t: t[0])
    return scored[: placer_module.MAX_CANDIDATES]


def rows_of(ranked, base):
    """``_rank``'s columns as the oracle's rows: Python floats and a
    :class:`PBlock` per candidate."""
    return [(total, timing, congestion,
             PBlock(col, row, col + base.width - 1, row + base.height - 1))
            for total, timing, congestion, col, row in zip(*(c.tolist() for c in ranked))]


def _per_candidate_placer(device) -> ComponentPlacer:
    """A placer whose search ranks through the oracle."""
    placer = ComponentPlacer(device)

    def rank(*args):
        rows = rank_per_candidate(placer, *args)
        return placer_module._Ranked(
            *(np.array([r[k] for r in rows], dtype=float) for k in range(3)),
            np.array([r[3].col0 for r in rows], dtype=np.int64),
            np.array([r[3].row0 for r in rows], dtype=np.int64))

    placer._rank = rank
    return placer


@st.composite
def footprints(draw, device, max_width=6, max_height=10):
    """A synthetic module: a pblock somewhere on *device*, a few placed
    sites inside it on the columns it says it uses, maybe partition pins."""
    width = draw(st.integers(1, max_width))
    height = draw(st.integers(1, max_height))
    col0 = draw(st.integers(0, device.ncols - width))
    row0 = draw(st.integers(0, device.nrows - height))
    pblock = PBlock(col0, row0, col0 + width - 1, row0 + height - 1)
    sites = draw(st.lists(
        st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)),
        min_size=1, max_size=8, unique=True))
    pins = {}
    for name in ("in_data", "out_data"):
        if draw(st.booleans()):
            pins[name] = (col0 + draw(st.integers(0, width - 1)),
                          row0 + draw(st.integers(0, height - 1)))
    return Footprint(
        name=f"m{draw(st.integers(0, 999))}",
        pblock=pblock,
        used_offsets={off: device.tile_type(col0 + off) for off, _ in sites},
        rel_sites=np.array(sites, dtype=np.int64).reshape(-1, 2),
        pin_tiles=pins,
    )


@st.composite
def ranking_cases(draw, device=SMALL):
    """Items, connections, and a partial placement of the other items."""
    modules = draw(st.lists(footprints(device), min_size=1, max_size=5))
    items = [(f"c{i}", m) for i, m in enumerate(modules)]
    idx = draw(st.integers(0, len(items) - 1))
    pairs = st.tuples(st.integers(0, len(items) - 1), st.integers(0, len(items) - 1))
    connections = draw(st.lists(pairs, max_size=8))
    placed = {}
    # dict order is part of the contract (the congestion sum runs over it):
    # place the others in a drawn order, at any legal anchor — overlapping
    # the item's candidates or not
    for other in draw(st.permutations([i for i in range(len(items)) if i != idx])):
        anchors = candidate_anchors(device, items[other][1])
        if anchors and draw(st.booleans()):
            col, row = draw(st.sampled_from(anchors))
            base = items[other][1].pblock
            placed[other] = PBlock(col, row, col + base.width - 1, row + base.height - 1)
    weights = draw(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 200.0), st.integers(0, 6)))
    return items, idx, connections, placed, weights


@given(ranking_cases(), st.integers(1, 96), st.sampled_from([0, placer_module.DENSE_PAIRS]))
@settings(max_examples=120, deadline=None)
def test_rank_arrays_equal_per_candidate_cost(case, max_candidates, dense_pairs):
    # dense_pairs 0: the congestion pairs come from the halo window alone
    items, idx, connections, placed, (tw, cw, halo) = case
    placer = ComponentPlacer(SMALL)
    anchors = candidate_anchors(SMALL, items[idx][1], row_step=3)
    assert np.array_equal(items[idx][1].anchors(SMALL, 3), np.array(anchors).reshape(-1, 2))
    with mock.patch.multiple(placer_module, HALO=halo, TIMING_WEIGHT=tw,
                             CONGESTION_WEIGHT=cw, MAX_CANDIDATES=max_candidates,
                             DENSE_PAIRS=dense_pairs):
        got = rows_of(placer._rank(idx, items[idx][1].anchors(SMALL, 3), items, connections,
                                   placed), items[idx][1].pblock)
        want = rank_per_candidate(placer, idx, anchors, items, connections, placed)
    assert got == want
    # == on floats hides a sign of zero and an int-for-float; repr does not
    assert [tuple(map(repr, row[:3])) for row in got] == \
           [tuple(map(repr, row[:3])) for row in want]


def test_rank_keeps_input_order_under_ties(monkeypatch):
    """No connection and nothing placed: every candidate costs 0.0, and
    the stable sort must leave them in anchor order, cut at the cap."""
    module = Footprint("m", PBlock(0, 0, 1, 3), {0: SMALL.tile_type(0)},
                       np.array([[0, 0]]), {})
    anchors = candidate_anchors(SMALL, module)
    monkeypatch.setattr(placer_module, "MAX_CANDIDATES", 10)
    placer = ComponentPlacer(SMALL)
    ranked = rows_of(placer._rank(0, anchors, [("m", module)], [], {}), module.pblock)
    assert [(p.col0, p.row0) for *_cost, p in ranked] == anchors[:10]
    assert ranked == rank_per_candidate(placer, 0, anchors, [("m", module)], [], {})


def test_rank_drops_anchors_that_leave_the_device():
    module = Footprint("m", PBlock(0, 0, 2, 4), {}, np.array([[0, 0]]), {})
    anchors = [(0, 0), (TINY.ncols - 2, 0), (0, TINY.nrows - 4), (3, 3)]
    placer = ComponentPlacer(TINY)
    ranked = rows_of(placer._rank(0, anchors, [("m", module)], [], {}), module.pblock)
    assert sorted((p.col0, p.row0) for *_cost, p in ranked) == [(0, 0), (3, 3)]
    assert ranked == rank_per_candidate(placer, 0, anchors, [("m", module)], [], {})
    assert rows_of(placer._rank(0, [], [("m", module)], [], {}), module.pblock) == []


def test_rank_keeps_blocked_candidates_for_the_pick_time_check():
    """A candidate sitting on a placed component's sites is ranked like
    any other (the placed set may shrink on backtracking); ``_cost``
    with the occupancy rejects it when the search picks it."""
    module = Footprint("m", PBlock(0, 0, 1, 1), {0: SMALL.tile_type(0)},
                       np.array([[0, 0], [1, 1]]), {})
    items = [("a", module), ("b", module)]
    placer = ComponentPlacer(SMALL)
    placed = {0: PBlock(0, 0, 1, 1)}
    ranked = rows_of(placer._rank(1, [(0, 0), (0, 2)], items, [(0, 1)], placed), module.pblock)
    assert {(p.col0, p.row0) for *_cost, p in ranked} == {(0, 0), (0, 2)}
    occ = np.zeros(SMALL.ncols * SMALL.nrows, dtype=bool)
    occ[placer._site_ids(module, placed[0])] = True
    assert placer._cost(1, PBlock(0, 0, 1, 1), items, [(0, 1)], placed, occ) is None
    assert placer._cost(1, PBlock(0, 2, 1, 3), items, [(0, 1)], placed, occ) is not None


@st.composite
def searches(draw, device=TINY):
    modules = draw(st.lists(footprints(device, max_width=5, max_height=12),
                            min_size=1, max_size=6))
    items = [(f"c{i}", m) for i, m in enumerate(modules)]
    pairs = st.tuples(st.integers(0, len(items) - 1), st.integers(0, len(items) - 1))
    chain = [(i - 1, i) for i in range(1, len(items))]
    connections = draw(st.one_of(st.just(chain), st.lists(pairs, max_size=8)))
    return items, connections


def _search(placer, items, connections):
    try:
        found = placer.place(items, connections)
    except PlacementInfeasible as exc:
        return ("infeasible", str(exc))
    return (found.anchors, found.pblocks, found.timing_cost, found.congestion_cost,
            found.attempts, found.backtracks)


@given(searches(), st.sampled_from([1, 3, 96]), st.sampled_from([0, placer_module.DENSE_PAIRS]))
@settings(max_examples=80, deadline=None)
def test_search_takes_the_same_path_over_either_ranking(case, max_candidates, dense_pairs):
    items, connections = case
    with mock.patch.multiple(placer_module, HALO=2, MAX_CANDIDATES=max_candidates,
                             MAX_ATTEMPTS=400, DENSE_PAIRS=dense_pairs):
        assert _search(ComponentPlacer(TINY), items, connections) == \
               _search(_per_candidate_placer(TINY), items, connections)


def test_a_search_that_backtracks_is_the_same_search(monkeypatch):
    """Three full-height slabs on the tiny part, ranked so that the
    first choices leave the last one nowhere to go: the search has to
    unplace and retry, and must do so identically over both rankings —
    building a :class:`PBlock` for each candidate it tries and no other."""
    # every slab needs a CLB column at offset 0; tall enough that rows
    # cannot be shared, wide enough that columns run out
    def slab(name, width):
        return Footprint(name, PBlock(0, 0, width - 1, TINY.nrows - 1),
                         {0: TINY.tile_type(0)},
                         np.array([[c, r] for c in range(width) for r in (0, 5)]), {})

    items = [("a", slab("a", 6)), ("b", slab("b", 5)), ("c", slab("c", 5))]
    connections = [(0, 1), (1, 2)]
    monkeypatch.setattr(placer_module, "HALO", 1)
    monkeypatch.setattr(placer_module, "MAX_CANDIDATES", 4)
    built = []
    monkeypatch.setattr(placer_module, "PBlock", lambda *corners: built.append(corners)
                        or PBlock(*corners))
    got = ComponentPlacer(TINY).place(items, connections)
    assert len(built) == got.attempts
    want = _per_candidate_placer(TINY).place(items, connections)
    assert got.backtracks == want.backtracks
    assert (got.anchors, got.attempts, got.timing_cost, got.congestion_cost) == \
           (want.anchors, want.attempts, want.timing_cost, want.congestion_cost)
    assert got.backtracks > 0, "the case is meant to exercise backtracking"


def test_placer_names_its_oracle():
    assert placer_module.ORACLE == "repro.rapidwright.placer.ComponentPlacer._cost"
    assert callable(ComponentPlacer._cost)
