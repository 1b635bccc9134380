"""Reference annealer: the readable form of :func:`repro.place.anneal`.

Two passes over one :class:`_Placement`, the way the classic annealers
are written (a ``move`` plus an ``energy``, the RNG passed in):

* :func:`_sweep` — the Metropolis sweep: random range-limited moves and
  swaps under a cooling schedule, restored to its best checkpoint;
* :func:`_clump` — the directed post-pass that pulls the outlier pins of
  the costliest nets toward their net's median.

Both make every move through :meth:`_Placement.move`, which rescans the
pins of each affected net (:meth:`_Placement.energy`) instead of keeping
bounding boxes: the compiled core (:mod:`repro.place.native`) caches
them and is asserted bit-identical to this module
(``tests/test_property_place.py``, ``tests/test_hotpath_determinism.py``).
The behaviour both share, beyond the schedule itself:

* a net with no movable pin costs its fixed pins' box (0.0 with no pins
  at all);
* every random draw comes from :func:`repro.place.annealer.move_streams`,
  chunk by chunk — the streams' values are the bit-identity contract
  (the 5 % global-hop branch takes its pool index from a stream of its
  own, drawn after all the others, so the other four do not depend on it);
* restoring the best checkpoint recomputes the per-net costs for the
  restored coordinates before the post-pass reads them.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .._util import make_rng, sum_left_to_right
from . import annealer
from .annealer import MAX_PINS, T_END_FRAC, AnnealStats, _net_cost, move_streams
from .problem import PlacementProblem

__all__ = ["anneal_reference"]


class _Placement:
    """Cell coordinates, per-net costs and site occupancy of one anneal.

    Coordinates are floats (what the cost sums see); a site is an
    ``(col, row)`` int pair.  Only nets of at most :data:`MAX_PINS` pins
    take part; net *k* is ``pins[k]`` (movable cell indices),
    ``fixed[k]`` (fixed pin coordinates) and ``weight[k]``.
    """

    def __init__(self, problem: PlacementProblem, sites: np.ndarray) -> None:
        n = problem.n_movable
        self.ctypes = problem.ctypes
        self.xs = sites[:, 0].astype(float).tolist()
        self.ys = sites[:, 1].astype(float).tolist()
        self.pins: list[list[int]] = []
        self.fixed: list[list[tuple[float, float]]] = []
        self.weight: list[float] = []
        self.nets_of: list[list[int]] = [[] for _ in range(n)]
        for net in problem.nets:
            if len(net.movable) + net.fixed.shape[0] > MAX_PINS:
                continue
            pins = [int(i) for i in net.movable]
            for i in pins:
                self.nets_of[i].append(len(self.pins))
            self.pins.append(pins)
            self.fixed.append([(float(a), float(b)) for a, b in net.fixed])
            self.weight.append(net.weight)
        self.cost = self.energy(range(len(self.pins)))
        self.occupant = {self.site(i): i for i in range(n)}
        # Per-type site geometry: the sorted distinct pool columns, the
        # row span, and the sites themselves (pools may exclude locked
        # sites, so a snapped (col, row) need not be one).
        self.cols: dict[str, list[int]] = {}
        self.rows: dict[str, tuple[int, int]] = {}
        self.sites: dict[str, set[tuple[int, int]]] = {}
        for ct in sorted(set(self.ctypes)):
            pool = problem.site_pools[ct]
            self.cols[ct] = sorted(set(int(c) for c in pool[:, 0]))
            self.rows[ct] = (int(pool[:, 1].min()), int(pool[:, 1].max()))
            self.sites[ct] = {(int(c), int(r)) for c, r in pool}

    def site(self, i: int) -> tuple[int, int]:
        return int(self.xs[i]), int(self.ys[i])

    def energy(self, nets) -> list[float]:
        """Costs of the nets numbered *nets* at the current coordinates,
        each rescanned from all of its pins."""
        xs, ys, pins, fixed, weight = self.xs, self.ys, self.pins, self.fixed, self.weight
        return [_net_cost(pins[k], fixed[k], xs, ys, weight[k]) for k in nets]

    def snap(self, i: int, col: float, row: float) -> tuple[int, int] | None:
        """The site of cell *i*'s type nearest ``(col, row)``: nearest pool
        column (the lower one on a tie), row clamped to the pool's span;
        ``None`` when that is not a site of the pool."""
        ct = self.ctypes[i]
        cols = self.cols[ct]
        k = bisect_left(cols, col)
        if k >= len(cols):
            k = len(cols) - 1
        elif k > 0 and abs(cols[k - 1] - col) < abs(cols[k] - col):
            k -= 1
        rmin, rmax = self.rows[ct]
        site = (cols[k], int(min(max(row, rmin), rmax)))
        return site if site in self.sites[ct] else None

    def move(self, i: int, site: tuple[int, int], accept) -> float | None:
        """Move cell *i* to *site*, swapping with the cell there if any.

        The affected nets are re-costed at the new coordinates; the move is
        kept, and its cost delta returned, when ``accept(delta)`` holds,
        and undone (returning ``None``) otherwise.
        """
        xs, ys, cost = self.xs, self.ys, self.cost
        old = (int(xs[i]), int(ys[i]))
        j = self.occupant.get(site)
        affected = self.nets_of[i] if j is None else sorted(set(self.nets_of[i] + self.nets_of[j]))
        before = sum_left_to_right([cost[k] for k in affected])
        xs[i], ys[i] = float(site[0]), float(site[1])
        if j is not None:
            xs[j], ys[j] = float(old[0]), float(old[1])
        after = self.energy(affected)
        delta = sum_left_to_right(after) - before
        if not accept(delta):
            xs[i], ys[i] = float(old[0]), float(old[1])
            if j is not None:
                xs[j], ys[j] = float(site[0]), float(site[1])
            return None
        for k, c in zip(affected, after):
            cost[k] = c
        self.occupant[site] = i
        if j is None:
            del self.occupant[old]
        else:
            self.occupant[old] = j
        return delta

    def restore(self, xs: list[float], ys: list[float]) -> None:
        """Jump back to saved coordinates: costs and occupancy follow."""
        self.xs, self.ys = xs, ys
        self.cost = self.energy(range(len(self.pins)))
        self.occupant = {self.site(i): i for i in range(len(xs))}


def anneal_reference(
    problem: PlacementProblem,
    sites: np.ndarray,
    *,
    seed: int | np.random.Generator = 0,
    moves_per_cell: int,
    max_moves: int,
) -> AnnealStats:
    """Refine *sites* in place; returns statistics."""
    rng = make_rng(seed)
    n = problem.n_movable
    if n == 0:
        return AnnealStats(0, 0, 0.0, 0.0)
    state = _Placement(problem, sites)
    initial_cost = sum_left_to_right(state.cost)
    budget = min(max_moves, moves_per_cell * n)
    if budget <= 0 or not state.pins:
        return AnnealStats(0, 0, initial_cost, initial_cost)

    accepted, cost = _sweep(state, problem, rng, budget, initial_cost)
    cost = _clump(state, cost)
    sites[:, 0] = state.xs
    sites[:, 1] = state.ys
    return AnnealStats(budget, accepted, initial_cost, min(cost, initial_cost))


def _sweep(
    state: _Placement, problem: PlacementProblem, rng: np.random.Generator,
    budget: int, cost: float,
) -> tuple[int, float]:
    """*budget* Metropolis moves from total cost *cost*; leaves *state* at
    the best checkpoint seen.  Returns ``(accepted moves, total cost)``."""
    # Low-temperature refinement: the legalized global placement is
    # already good, so this stage quenches rather than re-anneals — a hot
    # start would scatter converged clusters faster than random moves can
    # repair them.
    t0 = max(0.5, 0.12 * cost / max(1, len(state.pins)))
    t_end = t0 * T_END_FRAC
    alpha = (t_end / t0) ** (1.0 / budget)

    cell_picks, chunks = move_streams(rng, problem.n_movable, budget)

    # The move window shrinks from w_max to w_min as the schedule cools
    # (VPR-style), with a 5 % chance of a hop anywhere in the pool.
    c0, r0, c1, r1 = problem.bounds()
    w_max = max(8.0, max(c1 - c0, r1 - r0))
    w_min = 6.0

    def metropolis(delta):  # at the current step and temperature
        return delta <= 0 or uniforms[c] < math.exp(-delta / temperature)

    temperature = t0
    accepted = 0
    best_cost = cost
    xs, ys = state.xs, state.ys
    best = (list(xs), list(ys))
    # Keep the best state seen (SA may end on an uphill excursion), at a
    # checkpoint every checkpoint_every steps from step 0.  A checkpoint
    # that falls on a step making no move is not taken, and neither is
    # any after it: the schedule the compiled sweep has always run.
    checkpoint_every = max(1, budget // 32)
    checkpoint = 0
    for begin, uniforms, pool_picks, offset_picks, hop_picks in chunks:
        # Python numbers, not numpy scalars: the same values, and the
        # scalar arithmetic of the loop below runs several times faster
        # on them.  Step `step` reads entry `c` of the chunk.
        end = begin + uniforms.shape[0]
        picks = cell_picks[begin:end].tolist()
        uniforms, pool_picks, hop_picks = uniforms.tolist(), pool_picks.tolist(), hop_picks.tolist()
        dx, dy = offset_picks[:, 0].tolist(), offset_picks[:, 1].tolist()
        for c, step in enumerate(range(begin, end)):
            i = picks[c]
            old = (int(xs[i]), int(ys[i]))
            if pool_picks[c] < 0.05:
                pool = problem.site_pools[state.ctypes[i]]
                s = pool[int(hop_picks[c] * pool.shape[0]) % pool.shape[0]]
                site = (int(s[0]), int(s[1]))
            else:
                window = max(w_min, w_max * (1.0 - step / budget))
                site = state.snap(
                    i,
                    old[0] + (dx[c] * 2.0 - 1.0) * window,
                    old[1] + (dy[c] * 2.0 - 1.0) * window,
                )
            if site is None or site == old:
                temperature *= alpha
                continue
            delta = state.move(i, site, metropolis)
            if delta is not None:
                accepted += 1
                cost += delta
            temperature *= alpha
            if step == checkpoint:
                checkpoint += checkpoint_every
                if cost < best_cost:
                    best_cost = cost
                    best = (list(xs), list(ys))

    if cost > best_cost:
        state.restore(*best)
        return accepted, best_cost
    return accepted, cost


def _clump(state: _Placement, cost: float) -> float:
    """Directed post-pass from total cost *cost*; returns the new total.

    Random-walk annealing reduces total wirelength but rarely rescues an
    individual 300-tile net.  Each pass takes the costliest 2 % of the
    nets and moves every pin 16+ tiles from its net's median toward it,
    keeping the moves that lower the (quadratic) objective, for at most
    :data:`~repro.place.annealer.CLUMP_PASSES` passes or until one moves nothing.
    """
    xs, ys = state.xs, state.ys
    n_nets = len(state.pins)
    for _ in range(annealer.CLUMP_PASSES):
        order = sorted(range(n_nets), key=lambda k: -state.cost[k])
        changed = 0
        for k in order[: max(1, n_nets // 50)]:
            pins = state.pins[k]
            cx = sorted(xs[i] for i in pins)[len(pins) // 2]
            cy = sorted(ys[i] for i in pins)[len(pins) // 2]
            for i in pins:
                if abs(xs[i] - cx) + abs(ys[i] - cy) < 16:
                    continue
                site = state.snap(i, cx, cy)
                if site is None or site == state.site(i):
                    continue
                delta = state.move(i, site, lambda d: d < 0)
                if delta is not None:
                    cost += delta
                    changed += 1
        if not changed:
            break
    return cost
