"""Simulated-annealing detailed placement.

Refines a legal placement with single-cell moves and swaps under a
Metropolis schedule.  The move budget is bounded
(``moves_per_cell`` x cells, capped at ``max_moves``): larger designs
therefore receive proportionally less optimisation — the mechanism
behind the paper's observation that "vendor tools generally achieve
better QoR on smaller designs".

High-fanout nets (above :data:`MAX_PINS` pins) are excluded from the
incremental objective, as in production placers; their HPWL barely
changes under single-cell moves.

There are two implementations of the one algorithm, and :func:`anneal`
picks between them by whether the compiled core loads — nothing else
selects:

* :func:`repro.place.native.anneal_native` — the Metropolis sweep in C
  (``_anneal_core.c``) with cached per-net bounding boxes, then the
  clump post-pass as a second entry point of the same core; what every
  supported host runs;
* :func:`repro.place._annealer_reference.anneal_reference` — the sweep
  and the post-pass as two plain functions over one placement state that
  rescans every affected net on every move: the oracle the core is asserted
  bit-identical to (``tests/test_property_place.py``) and the fallback
  where the core cannot load (no compiler and no cached build, or
  ``REPRO_NATIVE=0``).  Same sites, same :class:`AnnealStats`, ≈40x
  slower at VGG scale (33 k cells, 400 k moves: 0.10 s vs 4.1 s;
  :mod:`repro._native` warns once when the fallback was not asked for).

This module holds what the two share: the schedule constants, the
statistics record, the random move streams (:func:`move_streams`) and
the scalar per-net cost — the oracle of the all-nets-at-once form
:mod:`repro.place.native` computes from the problem's columns.  The clump post-pass
is part of the algorithm and so lives in exactly those two places too:
``_clump`` in the reference and a second entry point of the C core.

The move streams are the bit-identity contract between the two tiers.
Both walk them in chunks of :data:`STREAM_CHUNK` steps, with exactly the
values five one-shot draws over the whole budget would give, so an
anneal holds its float streams for one chunk at a time: besides the
4 B-per-move cell picks, the C sweep's streams take 160 kB whatever the
budget (a one-shot draw took 53 MB at the 1.32 M moves of the monolithic
VGG-16 placement), and the fallback's Python-list streams under 1 MB
instead of ≈0.28 GB.  A chunk costs the C sweep one more ctypes call
(≈15 µs: ≈5 ms over those 1.32 M moves).
"""

from __future__ import annotations

import copy

import numpy as np

from ..obs.span import incr
from .problem import PlacementProblem

__all__ = ["anneal", "AnnealStats", "move_streams"]

#: Nets with more pins than this are left out of the annealed objective.
MAX_PINS = 64
#: Final temperature as a fraction of the starting one.
T_END_FRAC = 0.02
#: Steps per chunk of the float move streams (:func:`move_streams`).
STREAM_CHUNK = 1 << 12
#: Most passes of the clump post-pass (it stops early once one changes
#: nothing).
CLUMP_PASSES = 4


class AnnealStats:
    """Bookkeeping returned by :func:`anneal`."""

    __slots__ = ("moves", "accepted", "initial_cost", "final_cost")

    def __init__(self, moves: int, accepted: int, initial_cost: float, final_cost: float):
        self.moves = moves
        self.accepted = accepted
        self.initial_cost = initial_cost
        self.final_cost = final_cost

    @property
    def improvement(self) -> float:
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost

    def __repr__(self) -> str:
        return (
            f"<AnnealStats {self.accepted}/{self.moves} accepted, "
            f"cost {self.initial_cost:.0f}->{self.final_cost:.0f}>"
        )


#: Quadratic penalty divisor: a net of HPWL L costs ``L + L^2/K``.  Long
#: nets (potential critical paths) dominate their own cost, giving the
#: annealer a timing-driven gradient that plain total-HPWL lacks.
_QUAD_K = 120.0


def _net_cost(pins_m, fixed, xs, ys, weight) -> float:
    """HPWL-based cost of one net over movable and fixed pins.

    Degenerate nets are handled: with no movable pins the bounding box is
    seeded from the fixed pins, and a net with no pins at all costs 0.0.
    """
    x0 = x1 = None
    for i in pins_m:
        x = xs[i]
        y = ys[i]
        if x0 is None:
            x0 = x1 = x
            y0 = y1 = y
        else:
            if x < x0: x0 = x
            elif x > x1: x1 = x
            if y < y0: y0 = y
            elif y > y1: y1 = y
    for fx, fy in fixed:
        if x0 is None:
            x0 = x1 = fx
            y0 = y1 = fy
            continue
        if fx < x0: x0 = fx
        elif fx > x1: x1 = fx
        if fy < y0: y0 = fy
        elif fy > y1: y1 = fy
    if x0 is None:
        return 0.0
    hpwl = (x1 - x0) + (y1 - y0)
    return (hpwl + hpwl * hpwl / _QUAD_K) * weight


def move_streams(rng: np.random.Generator, n: int, budget: int):
    """The random streams of a *budget*-move anneal of *n* cells:
    ``(cell_picks, chunks)``.

    The values are those of five one-shot draws from *rng*, in this
    order: ``integers(0, n, size=budget)`` (the cell picks, returned
    whole, as ``int32``: the values of the ``int64`` draw, leaving *rng*
    in the same state; numpy refuses an *n* above ``2**31``), then
    ``random`` of sizes ``budget`` (Metropolis uniforms),
    ``budget`` (global-hop gates), ``(budget, 2)`` (window offsets:
    column, row) and ``budget`` (hop pool picks — drawn last, so the
    other streams do not depend on it).  *chunks* yields ``(begin,
    uniforms, pool, offsets, hop)`` for steps ``begin`` up to
    ``begin + len(uniforms)``, :data:`STREAM_CHUNK` steps at a time.

    A double is one 64-bit draw, so the float stream *k* starts a fixed
    number of draws after the picks; each is read from its own copy of
    the bit generator advanced to there.  *rng* is left exactly where
    the one-shot draws leave it.  Only PCG64 and PCG64DXSM advance in
    draws (what :func:`repro._util.make_rng` builds); any other bit
    generator raises ``TypeError``.
    """
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        raise TypeError(
            f"move_streams needs a PCG64 or PCG64DXSM generator, not {type(bits).__name__}"
        )
    cell_picks = rng.integers(0, n, size=budget, dtype=np.int32)
    streams = []
    for start in (0, budget, 2 * budget, 4 * budget):
        stream = copy.deepcopy(bits)
        stream.advance(start)
        streams.append(np.random.Generator(stream))
    # advance() clears the buffered 32-bit half; the one-shot draws keep it
    state = bits.state
    bits.advance(5 * budget)
    bits.state = {**bits.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    return cell_picks, _chunks(budget, *streams)


def _chunks(budget, uniforms, pool, offsets, hop):
    for begin in range(0, budget, STREAM_CHUNK):
        size = min(STREAM_CHUNK, budget - begin)
        yield (
            begin, uniforms.random(size), pool.random(size),
            offsets.random((size, 2)), hop.random(size),
        )


def anneal(
    problem: PlacementProblem,
    sites: np.ndarray,
    *,
    seed: int | np.random.Generator = 0,
    moves_per_cell: int = 40,
    max_moves: int = 400_000,
) -> AnnealStats:
    """Refine *sites* in place; returns statistics.

    Runs the compiled sweep in :mod:`repro.place.native` when the C core
    loads, whatever the problem size, and the rescan-everything
    reference when it does not; the results are bit-identical.
    """
    from .native import anneal_native, native_available

    if native_available():
        impl = anneal_native
    else:
        from ._annealer_reference import anneal_reference as impl
    stats = impl(problem, sites, seed=seed, moves_per_cell=moves_per_cell, max_moves=max_moves)
    incr("place.moves", stats.moves)
    incr("place.accepted", stats.accepted)
    return stats
