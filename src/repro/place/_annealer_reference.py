"""Reference annealer: full per-net pin rescans, no cached bounding boxes.

This is the pre-optimization implementation of :func:`repro.place.anneal`
kept verbatim — every affected net's cost is recomputed by scanning all
of its pins on every move — as the equivalence oracle for the
incremental-bbox annealer and the speedup baseline for
``benchmarks/bench_hotpaths.py``.  Behavioural fixes are applied to both
implementations so they stay comparable:

* degenerate nets with no movable pins seed their bounding box from the
  fixed pins instead of crashing (and cost 0.0 with no pins at all);
* the 5 % global-hop branch draws an *independent* uniform for the pool
  index (``hop_picks``) instead of reusing the gate variable, which
  restricted hops to an aliased slice of the pool — the extra stream is
  drawn after all others, so non-hop moves are unaffected;
* after restoring the best-seen state, per-net costs are recomputed for
  the restored coordinates (they previously went stale, skewing the
  clump post-pass).

:func:`anneal_reference` must stay bit-identical to
:func:`repro.place.annealer.anneal` — asserted by
``tests/test_hotpath_determinism.py`` and the Hypothesis property suite.
"""

from __future__ import annotations

import math

import numpy as np

from .._util import make_rng, sum_left_to_right
from .annealer import AnnealStats, _QUAD_K, _net_cost
from .problem import PlacementProblem

__all__ = ["anneal_reference"]


def anneal_reference(
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
    """Refine *sites* in place; returns statistics."""
    rng = make_rng(seed)
    n = problem.n_movable
    if n == 0:
        return AnnealStats(0, 0, 0.0, 0.0)

    xs = sites[:, 0].astype(float).tolist()
    ys = sites[:, 1].astype(float).tolist()

    # Small-net working set as python lists (fast single-move deltas).
    nets: list[tuple[list[int], list[tuple[float, float]], float]] = []
    nets_of: list[list[int]] = [[] for _ in range(n)]
    for net in problem.nets:
        if len(net.movable) + net.fixed.shape[0] > max_pins:
            continue
        pins = [int(i) for i in net.movable]
        fixed = [(float(a), float(b)) for a, b in net.fixed]
        idx = len(nets)
        nets.append((pins, fixed, net.weight))
        for i in pins:
            nets_of[i].append(idx)

    cost = [
        _net_cost(pins, fixed, xs, ys, w) for pins, fixed, w in nets
    ]
    initial_cost = sum_left_to_right(cost)

    occupant: dict[tuple[int, int], int] = {}
    for i in range(n):
        occupant[(int(sites[i, 0]), int(sites[i, 1]))] = i

    ctypes = problem.ctypes
    # Per-type site geometry for range-limited moves: sorted columns, row
    # bounds, and a membership set (pools may exclude locked sites).
    type_cols: dict[str, list[int]] = {}
    type_rows: dict[str, tuple[int, int]] = {}
    type_sets: dict[str, set[tuple[int, int]]] = {}
    for ct in sorted(set(ctypes)):
        pool = problem.site_pools[ct]
        type_cols[ct] = sorted(set(int(c) for c in pool[:, 0]))
        type_rows[ct] = (int(pool[:, 1].min()), int(pool[:, 1].max()))
        type_sets[ct] = {(int(c), int(r)) for c, r in pool}

    budget = min(max_moves, moves_per_cell * n)
    if budget <= 0 or not nets:
        return AnnealStats(0, 0, initial_cost, initial_cost)

    # Low-temperature refinement: the legalized global placement is
    # already good, so this stage quenches rather than re-anneals — a hot
    # start would scatter converged clusters faster than random moves can
    # repair them.
    t0 = max(0.5, 0.12 * initial_cost / max(1, len(nets)))
    t_end = t0 * t_end_frac
    alpha = (t_end / t0) ** (1.0 / budget)

    cell_picks = rng.integers(0, n, size=budget)
    uniforms = rng.random(size=budget)
    pool_picks = rng.random(size=budget)
    offset_picks = rng.random(size=(budget, 2))
    # Independent pool index for the global-hop branch, drawn after every
    # other stream so the non-hop draws above are unchanged.
    hop_picks = rng.random(size=budget)

    c0b, r0b, c1b, r1b = problem.bounds()
    w_max = max(8.0, max(c1b - c0b, r1b - r0b))
    w_min = 6.0

    from bisect import bisect_left

    temperature = t0
    accepted = 0
    running = initial_cost
    best_cost = initial_cost
    best_state = (list(xs), list(ys))
    checkpoint_every = max(1, budget // 32)
    for step in range(budget):
        i = int(cell_picks[step])
        ct = ctypes[i]
        old = (int(xs[i]), int(ys[i]))
        # Range-limited target: window shrinks as the schedule cools
        # (VPR-style), with a small chance of a global hop.
        if pool_picks[step] < 0.05:
            pool = problem.site_pools[ct]
            s = pool[int(hop_picks[step] * pool.shape[0]) % pool.shape[0]]
            tcol, trow = int(s[0]), int(s[1])
        else:
            frac = step / budget
            window = max(w_min, w_max * (1.0 - frac))
            want_col = old[0] + (offset_picks[step, 0] * 2.0 - 1.0) * window
            want_row = old[1] + (offset_picks[step, 1] * 2.0 - 1.0) * window
            cols = type_cols[ct]
            k = bisect_left(cols, want_col)
            if k >= len(cols):
                k = len(cols) - 1
            elif k > 0 and abs(cols[k - 1] - want_col) < abs(cols[k] - want_col):
                k -= 1
            tcol = cols[k]
            rmin, rmax = type_rows[ct]
            trow = int(min(max(want_row, rmin), rmax))
            if (tcol, trow) not in type_sets[ct]:
                temperature *= alpha
                continue
        if (tcol, trow) == old:
            temperature *= alpha
            continue
        j = occupant.get((tcol, trow))

        affected = nets_of[i] if j is None else sorted(set(nets_of[i] + nets_of[j]))
        before = 0.0
        for k in affected:
            before += cost[k]
        # apply tentatively
        xs[i], ys[i] = float(tcol), float(trow)
        if j is not None:
            xs[j], ys[j] = float(old[0]), float(old[1])
        after = 0.0
        new_costs = []
        for k in affected:
            pins, fixed, w = nets[k]
            ck = _net_cost(pins, fixed, xs, ys, w)
            new_costs.append(ck)
            after += ck
        delta = after - before
        if delta <= 0 or uniforms[step] < math.exp(-delta / temperature):
            accepted += 1
            running += delta
            for k, ck in zip(affected, new_costs):
                cost[k] = ck
            occupant[(tcol, trow)] = i
            if j is not None:
                occupant[old] = j
            else:
                del occupant[old]
        else:
            xs[i], ys[i] = float(old[0]), float(old[1])
            if j is not None:
                xs[j], ys[j] = float(tcol), float(trow)
        temperature *= alpha
        # keep the best state seen (SA may end on an uphill excursion)
        if step % checkpoint_every == 0:
            if running < best_cost:
                best_cost = running
                best_state = (list(xs), list(ys))

    if running > best_cost:
        xs, ys = best_state
        final_cost = best_cost
        # the cost cache tracked the *final* walk, not the restored best
        # state — recompute before the clump pass reads it
        cost = [_net_cost(pins, fixed, xs, ys, w) for pins, fixed, w in nets]
    else:
        final_cost = running

    # Directed post-pass: clump the longest nets.  Random-walk annealing
    # reduces total wirelength but rarely rescues an individual 300-tile
    # net; here the outlier pins of the worst nets are pulled toward
    # their net centroid when that lowers the (quadratic) objective.
    occupant = {}
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
                if (tcol, trow) not in type_sets[ct]:
                    continue
                old = (int(xs[i]), int(ys[i]))
                if (tcol, trow) == old:
                    continue
                j = occupant.get((tcol, trow))
                affected = nets_of[i] if j is None else sorted(set(nets_of[i] + nets_of[j]))
                before = sum_left_to_right(cost[a] for a in affected)
                xs[i], ys[i] = float(tcol), float(trow)
                if j is not None:
                    xs[j], ys[j] = float(old[0]), float(old[1])
                new_costs = [
                    _net_cost(nets[a][0], nets[a][1], xs, ys, nets[a][2]) for a in affected
                ]
                delta = sum_left_to_right(new_costs) - before
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

    for i in range(n):
        sites[i, 0] = int(xs[i])
        sites[i, 1] = int(ys[i])
    return AnnealStats(budget, accepted, initial_cost, min(final_cost, initial_cost))
