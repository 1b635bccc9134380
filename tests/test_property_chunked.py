"""Chunked kernels and narrow draws equal their whole-array forms.

* :meth:`RoutingGraph.path_metrics_batch` walks its paths one
  :func:`path_slices` run at a time (at most ``METRICS_CHUNK`` nodes, or
  one longer path): with the chunk shrunk to a few nodes, so paths
  straddle every slice border, it equals the one-call form over all
  nodes and the scalar walk;
* :func:`move_streams` draws the anneal's cell picks as ``int32``: the
  values of the ``int64`` draw, and the generator left in its state.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.fabric.interconnect as interconnect
from repro._util import make_rng
from repro.fabric import Device, RoutingGraph
from repro.place.annealer import move_streams

SMALL = Device.from_name("small")
GRAPH = RoutingGraph(SMALL)


@st.composite
def paths(draw, min_len: int = 1):
    """Random node paths, many of one node, some longer than any chunk
    the tests below pick."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    lens = draw(st.lists(st.sampled_from((min_len, 1, 2, 3, 9, 40)), max_size=30))
    return [[rng.randrange(GRAPH.n_nodes) for _ in range(n)] for n in lens]


def _chunk(size: int):
    return mock.patch.object(interconnect, "METRICS_CHUNK", size)


@given(paths(), st.integers(1, 24))
@settings(max_examples=80, deadline=None)
def test_path_slices_cover_every_path_once(node_paths, chunk):
    lens = np.fromiter(map(len, node_paths), dtype=np.int64, count=len(node_paths))
    with _chunk(chunk):
        slices = list(interconnect.path_slices(lens))
    assert [i for a, b in slices for i in range(a, b)] == list(range(len(lens)))
    for a, b in slices:
        assert b - a == 1 or int(lens[a:b].sum()) <= chunk


@given(paths(), st.integers(1, 24))
@settings(max_examples=80, deadline=None)
def test_chunked_path_metrics_equal_the_whole_array_form(node_paths, chunk):
    lens = np.fromiter(map(len, node_paths), dtype=np.int64, count=len(node_paths))
    flat = np.asarray([n for p in node_paths for n in p], dtype=np.int64)
    whole = GRAPH.path_metrics_csr(flat, np.cumsum(lens) - lens, lens)
    with _chunk(chunk):
        tiles, crossings = GRAPH.path_metrics_batch(node_paths)
    assert tiles.dtype == crossings.dtype == np.int64
    assert tiles.tolist() == whole[0].tolist() and crossings.tolist() == whole[1].tolist()
    assert list(zip(tiles.tolist(), crossings.tolist())) == [
        GRAPH.path_metrics(p) for p in node_paths
    ]


def _used(seed: int) -> np.random.Generator:
    """A generator that has been drawn from, holding a buffered 32-bit half."""
    rng = make_rng(seed)
    rng.random(3)
    rng.integers(0, 9, dtype=np.int32)
    return rng


@given(st.one_of(st.sampled_from((3, 7, 394, 33_110, 2**31 - 1, 2**31)), st.integers(1, 2**31)),
       st.integers(0, 3_000), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_int32_picks_equal_the_int64_draw(n, budget, seed, used):
    fresh = _used if used else make_rng
    # the draw itself: same values, and the generator left in the same state
    narrow, wide = fresh(seed), fresh(seed)
    assert np.array_equal(narrow.integers(0, n, size=budget, dtype=np.int32),
                          wide.integers(0, n, size=budget))
    assert narrow.bit_generator.state == wide.bit_generator.state
    # and through move_streams: every stream the one-shot int64 draws give
    want_rng, rng = fresh(seed), fresh(seed)
    want = (want_rng.integers(0, n, size=budget), want_rng.random(budget),
            want_rng.random(budget), want_rng.random((budget, 2)), want_rng.random(budget))
    picks, chunks = move_streams(rng, n, budget)
    chunks = list(chunks)
    got = (picks, *(np.concatenate([c[k] for c in chunks]) if chunks else np.zeros(0)
                    for k in range(1, 5)))
    assert picks.dtype == np.int32
    for stream, one_shot in zip(got, want):
        assert np.array_equal(stream, one_shot.reshape(stream.shape))
    assert rng.bit_generator.state == want_rng.bit_generator.state
