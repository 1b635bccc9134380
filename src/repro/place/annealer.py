"""Simulated-annealing detailed placement.

Refines a legal placement with single-cell moves and swaps under a
Metropolis schedule.  The move budget is bounded
(``moves_per_cell`` x cells, capped at ``max_moves``): larger designs
therefore receive proportionally less optimisation — the mechanism
behind the paper's observation that "vendor tools generally achieve
better QoR on smaller designs".

High-fanout nets (above ``max_pins``) are excluded from the incremental
objective, as in production placers; their HPWL barely changes under
single-cell moves.

There are two implementations of the one algorithm, and :func:`anneal`
picks between them by whether the compiled core loads — nothing else
selects:

* :func:`repro.place.native.anneal_native` — the Metropolis sweep in C
  (``_anneal_core.c``) with cached per-net bounding boxes, what every
  supported host runs;
* :func:`repro.place._annealer_reference.anneal_reference` — rescans
  every affected net on every move: the oracle the core is asserted
  bit-identical to (``tests/test_property_place.py``) and the fallback
  where the core cannot load (no compiler and no cached build, or
  ``REPRO_NATIVE=0``).  Same sites, same :class:`AnnealStats`, ≈16x
  slower at VGG scale (33 k cells, 400 k moves: 0.23 s vs 3.7 s;
  :mod:`repro._native` warns once when the fallback was not asked for).

This module holds what the two share: the statistics record, the
per-net cost (scalar and all-nets-at-once forms, the same IEEE
operations), the per-type site geometry and the clump post-pass.
"""

from __future__ import annotations

import numpy as np

from ..obs.span import incr
from .problem import PlacementProblem

__all__ = ["anneal", "AnnealStats"]


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


def _csr_boxes(offs, flat, weights, fixed_lo, fixed_hi, xs_arr, ys_arr):
    """Bounding boxes and costs of *all* nets at once, as arrays.

    Net ``k``'s movable pins are ``flat[offs[k]:offs[k + 1]]`` (the last
    net runs to the end of ``flat``).  ``fixed_lo``/``fixed_hi`` are the
    per-net fixed-pin extremes as ``(n_nets, 2)`` arrays (``+inf``/``-inf``
    where a net has no fixed pins, which min/max ignore exactly).
    Returns ``x0, x1, y0, y1, cost`` — min/max and the cost polynomial
    are the same IEEE operations the scalar :func:`_net_cost` performs,
    so the values are bit-identical.
    """
    px = xs_arr[flat]
    py = ys_arr[flat]
    x0 = np.minimum(np.minimum.reduceat(px, offs), fixed_lo[:, 0])
    x1 = np.maximum(np.maximum.reduceat(px, offs), fixed_hi[:, 0])
    y0 = np.minimum(np.minimum.reduceat(py, offs), fixed_lo[:, 1])
    y1 = np.maximum(np.maximum.reduceat(py, offs), fixed_hi[:, 1])
    hpwl = (x1 - x0) + (y1 - y0)
    cost = (hpwl + hpwl * hpwl / _QUAD_K) * weights
    return x0, x1, y0, y1, cost


def _type_geometry(problem: PlacementProblem):
    """Per-type site geometry for range-limited moves: each movable cell
    type's sorted distinct pool columns and its ``(min, max)`` pool row."""
    type_cols: dict[str, list[int]] = {}
    type_rows: dict[str, tuple[int, int]] = {}
    for ct in sorted(set(problem.ctypes)):
        pool = problem.site_pools[ct]
        type_cols[ct] = np.unique(pool[:, 0]).tolist()
        type_rows[ct] = (int(pool[:, 1].min()), int(pool[:, 1].max()))
    return type_cols, type_rows


def _clump_pass(nets, nets_of, cost, xs, ys, ctypes,
                type_cols, type_rows, site_pools, clump_passes, final_cost, n):
    """Directed post-pass: clump the longest nets.

    Random-walk annealing reduces total wirelength but rarely rescues an
    individual 300-tile net; here the outlier pins of the worst nets are
    pulled toward their net centroid when that lowers the (quadratic)
    objective.  The native annealer's post-pass (the reference keeps
    its own copy); mutates ``xs``/``ys``/``cost`` and returns the
    updated final cost.
    """
    from bisect import bisect_left

    # Per-type {(col, row)} pool membership, built on the first probe: a
    # component whose pins all sit near their net medians never asks.
    type_sets: dict[str, set[tuple[int, int]]] = {}
    occupant: dict[tuple[int, int], int] = {}
    for i in range(n):
        occupant[(int(xs[i]), int(ys[i]))] = i
    for _ in range(clump_passes):
        order = sorted(range(len(nets)), key=lambda k: -cost[k])
        changed = 0
        for k in order[: max(1, len(nets) // 50)]:
            pins, fixed, _w = nets[k]
            cx = sorted(xs[i] for i in pins)[len(pins) // 2]
            cy = sorted(ys[i] for i in pins)[len(pins) // 2]
            for i in pins:
                if abs(xs[i] - cx) + abs(ys[i] - cy) < 16:
                    continue
                ct = ctypes[i]
                cols = type_cols[ct]
                kk = bisect_left(cols, cx)
                if kk >= len(cols):
                    kk = len(cols) - 1
                elif kk > 0 and abs(cols[kk - 1] - cx) < abs(cols[kk] - cx):
                    kk -= 1
                rmin, rmax = type_rows[ct]
                tcol = cols[kk]
                trow = int(min(max(cy, rmin), rmax))
                members = type_sets.get(ct)
                if members is None:
                    members = type_sets[ct] = set(map(tuple, site_pools[ct].tolist()))
                if (tcol, trow) not in members:
                    continue
                old = (int(xs[i]), int(ys[i]))
                if (tcol, trow) == old:
                    continue
                j = occupant.get((tcol, trow))
                affected = nets_of[i] if j is None else sorted(set(nets_of[i] + nets_of[j]))
                before = sum(cost[a] for a in affected)
                xs[i], ys[i] = float(tcol), float(trow)
                if j is not None:
                    xs[j], ys[j] = float(old[0]), float(old[1])
                new_costs = [
                    _net_cost(nets[a][0], nets[a][1], xs, ys, nets[a][2]) for a in affected
                ]
                delta = sum(new_costs) - before
                if delta < 0:
                    for a, ca in zip(affected, new_costs):
                        cost[a] = ca
                    occupant[(tcol, trow)] = i
                    if j is not None:
                        occupant[old] = j
                    else:
                        del occupant[old]
                    final_cost += delta
                    changed += 1
                else:
                    xs[i], ys[i] = float(old[0]), float(old[1])
                    if j is not None:
                        xs[j], ys[j] = float(tcol), float(trow)
        if not changed:
            break
    return final_cost


def anneal(
    problem: PlacementProblem,
    sites: np.ndarray,
    *,
    seed: int | np.random.Generator = 0,
    moves_per_cell: int = 40,
    max_moves: int = 400_000,
    max_pins: int = 64,
    t_end_frac: float = 0.02,
    clump_passes: int = 4,
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
    stats = impl(
        problem, sites, seed=seed, moves_per_cell=moves_per_cell,
        max_moves=max_moves, max_pins=max_pins,
        t_end_frac=t_end_frac, clump_passes=clump_passes,
    )
    incr("place.moves", stats.moves)
    incr("place.accepted", stats.accepted)
    return stats
