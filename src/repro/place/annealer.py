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

Hot-path layout: every net carries a cached bounding box
``(x0, x1, y0, y1)`` over its movable *and* fixed pins.  A move that
displaces a pin from the box's strict interior updates the box in O(1)
(the box can only grow toward the new position); only a pin leaving from
the boundary forces a rescan of that net's pins.  Swaps *within* a net
permute pin positions without changing the multiset, so those nets are
skipped outright.  The initial boxes and costs — and the refresh after
restoring the best-seen state — are computed for all nets at once with
``np.minimum.reduceat``/``np.maximum.reduceat``.  All of it is
bit-identical to the rescan-everything reference implementation
(:func:`repro.place._annealer_reference.anneal_reference`), which the
property suite asserts.
"""

from __future__ import annotations

import math

import numpy as np

from .._util import make_rng
from ..obs.span import incr, sample
from .problem import PlacementProblem

__all__ = ["anneal", "anneal_scalar", "AnnealStats"]


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

#: Site-key stride for the int-encoded ``col * _ENC + row`` occupancy and
#: pool-membership keys (larger than any fabric dimension).
_ENC = 1 << 14

#: Sentinel past any net index for the sorted-merge walk over net lists.
_BIG = 1 << 60


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


def _batch_boxes(nets, fixed_lo, fixed_hi, xs, ys):
    """:func:`_csr_boxes` over the python-list working set, as five flat
    lists ``x0, x1, y0, y1, cost``."""
    counts = np.array([len(pins) for pins, _f, _w in nets], dtype=np.intp)
    flat = np.fromiter(
        (i for pins, _f, _w in nets for i in pins),
        dtype=np.intp,
        count=int(counts.sum()),
    )
    offs = np.zeros(len(nets), dtype=np.intp)
    np.cumsum(counts[:-1], out=offs[1:])
    weights = np.array([w for _p, _f, w in nets], dtype=np.float64)
    boxes = _csr_boxes(
        offs, flat, weights, fixed_lo, fixed_hi,
        np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64),
    )
    return tuple(a.tolist() for a in boxes)


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
    objective.  Shared verbatim by the scalar, batched and native
    annealers (the reference keeps its own copy); mutates
    ``xs``/``ys``/``cost`` and returns the updated final cost.
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


#: Orders the two pure-Python fallbacks, which only run without the C
#: core (no compiler, ``REPRO_NATIVE=0``): from this many movable cells
#: the block-vectorized implementation wins, below it the scalar
#: incremental-bbox loop does (less vectorization overhead).  All three
#: are bit-identical to the reference.
_BATCH_MIN_CELLS = 6000


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
    batch: bool | None = None,
) -> AnnealStats:
    """Refine *sites* in place; returns statistics.

    Runs the compiled sweep in :mod:`repro.place.native` whenever the C
    core is available, whatever the problem size.  Without it the two
    pure-Python implementations share the work by size: the
    block-vectorized one in :mod:`repro.place.annealer_batch` from
    ``_BATCH_MIN_CELLS`` movable cells, the scalar incremental-bbox loop
    below.  ``batch=False`` forces the scalar loop, ``batch=True`` the
    compiled sweep or, without the core, the block-vectorized one.  All
    produce bit-identical results.
    """
    from .native import anneal_native, native_available

    native = native_available()
    if batch is None:
        batch = native or problem.n_movable >= _BATCH_MIN_CELLS
    if not batch:
        impl = anneal_scalar
    elif native:
        impl = anneal_native
    else:
        from .annealer_batch import anneal_batched as impl
    return impl(
        problem, sites, seed=seed, moves_per_cell=moves_per_cell,
        max_moves=max_moves, max_pins=max_pins,
        t_end_frac=t_end_frac, clump_passes=clump_passes,
    )


def anneal_scalar(
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

    if not nets:
        return AnnealStats(0, 0, 0.0, 0.0)

    # Static fixed-pin extremes per net; infinities vanish under min/max.
    fixed_lo = np.full((len(nets), 2), np.inf)
    fixed_hi = np.full((len(nets), 2), -np.inf)
    for k, (_pins, fixed, _w) in enumerate(nets):
        if fixed:
            fa = np.asarray(fixed)
            fixed_lo[k] = fa.min(axis=0)
            fixed_hi[k] = fa.max(axis=0)

    bx0, bx1, by0, by1, cost = _batch_boxes(nets, fixed_lo, fixed_hi, xs, ys)
    initial_cost = sum(cost)

    # Flat per-net layout for the move loop: head pin, tail pins (no
    # per-move slicing), weight, and fixed extremes as plain floats.
    # Two-movable-pin nets with no fixed pins — the bulk of a layer-
    # granularity netlist — get a dedicated O(1) path: the partner pin is
    # recovered from the precomputed pin sum, and the box is the min/max
    # of two points.
    net_head = [pins[0] for pins, _f, _w in nets]
    net_tail = [pins[1:] for pins, _f, _w in nets]
    net_w = [w for _p, _f, w in nets]
    net_two = [len(pins) == 2 and not fixed for pins, fixed, _w in nets]
    net_psum = [
        pins[0] + pins[1] if (len(pins) == 2 and not fixed) else 0
        for pins, fixed, _w in nets
    ]
    fx0l = fixed_lo[:, 0].tolist()
    fy0l = fixed_lo[:, 1].tolist()
    fx1l = fixed_hi[:, 0].tolist()
    fy1l = fixed_hi[:, 1].tolist()

    # Integer coordinates mirror xs/ys for occupancy keys (updated on
    # accepted moves only, so the hot path never converts floats).  Sites
    # are keyed as col * _ENC + row: int keys hash faster than tuples and
    # allocate nothing per probe.
    xi = [int(v) for v in xs]
    yi = [int(v) for v in ys]
    occupant: dict[int, int] = {}
    for i in range(n):
        occupant[xi[i] * _ENC + yi[i]] = i

    ctypes = problem.ctypes
    type_cols, type_rows = _type_geometry(problem)
    # Per-cell views of the same geometry: one list index replaces three
    # string-keyed dict lookups per move, and pool membership (pools may
    # exclude locked sites) probes an int-keyed set.
    type_isets = {}
    for ct in type_cols:
        pool = problem.site_pools[ct]
        type_isets[ct] = set((pool[:, 0] * _ENC + pool[:, 1]).tolist())
    cell_cols = [type_cols[ct] for ct in ctypes]
    cell_rmin = [type_rows[ct][0] for ct in ctypes]
    cell_rmax = [type_rows[ct][1] for ct in ctypes]
    cell_sites = [type_isets[ct] for ct in ctypes]
    cell_pools = [problem.site_pools[ct] for ct in ctypes]

    budget = min(max_moves, moves_per_cell * n)
    if budget <= 0:
        return AnnealStats(0, 0, initial_cost, initial_cost)

    # Low-temperature refinement: the legalized global placement is
    # already good, so this stage quenches rather than re-anneals — a hot
    # start would scatter converged clusters faster than random moves can
    # repair them.
    t0 = max(0.5, 0.12 * initial_cost / max(1, len(nets)))
    t_end = t0 * t_end_frac
    alpha = (t_end / t0) ** (1.0 / budget)

    cell_picks = rng.integers(0, n, size=budget).tolist()
    uniforms = rng.random(size=budget).tolist()
    pool_picks = rng.random(size=budget).tolist()
    offset_picks = rng.random(size=(budget, 2))
    # Independent pool index for the global-hop branch: reusing
    # ``pool_picks`` both as the 5% gate and the index restricted hops to
    # an aliased slice of the pool.  Drawn after every other stream so
    # the non-hop draws above are unchanged.
    hop_picks = rng.random(size=budget).tolist()

    c0b, r0b, c1b, r1b = problem.bounds()
    w_max = max(8.0, max(c1b - c0b, r1b - r0b))
    w_min = 6.0

    # The shrinking window and the offset draws depend only on the step
    # index, so the per-move target offsets collapse into one vectorized
    # pass (elementwise, hence the same IEEE operations as the scalar
    # expressions they replace).
    windows = np.maximum(
        w_min, w_max * (1.0 - np.arange(budget, dtype=np.float64) / budget)
    )
    dxs = ((offset_picks[:, 0] * 2.0 - 1.0) * windows).tolist()
    dys = ((offset_picks[:, 1] * 2.0 - 1.0) * windows).tolist()

    from bisect import bisect_left

    exp = math.exp
    site_pools = problem.site_pools
    temperature = t0
    accepted = 0
    bbox_fast = 0
    bbox_rescan = 0
    running = initial_cost
    best_cost = initial_cost
    best_state = (list(xs), list(ys))
    checkpoint_every = max(1, budget // 32)
    next_checkpoint = 0
    occ_get = occupant.get
    for step in range(budget):
        i = cell_picks[step]
        oxi = xi[i]
        oyi = yi[i]
        # Range-limited target: window shrinks as the schedule cools
        # (VPR-style), with a small chance of a global hop.
        if pool_picks[step] < 0.05:
            pool = cell_pools[i]
            npool = pool.shape[0]
            s = pool[int(hop_picks[step] * npool) % npool]
            tcol, trow = int(s[0]), int(s[1])
            tkey = tcol * _ENC + trow
        else:
            want_col = oxi + dxs[step]
            cols = cell_cols[i]
            nc = len(cols)
            k = bisect_left(cols, want_col, 0, nc)
            # bisect_left leaves cols[k-1] < want_col <= cols[k], so both
            # distances are nonnegative and the abs() calls fold away
            if k >= nc:
                k = nc - 1
            elif k > 0 and want_col - cols[k - 1] < cols[k] - want_col:
                k -= 1
            tcol = cols[k]
            want_row = oyi + dys[step]
            lo = cell_rmin[i]
            hi = cell_rmax[i]
            trow = int(lo if want_row < lo else hi if want_row > hi else want_row)
            tkey = tcol * _ENC + trow
            if tkey not in cell_sites[i]:
                temperature *= alpha
                continue
        if tcol == oxi and trow == oyi:
            temperature *= alpha
            continue
        j = occ_get(tkey)

        oxf = xs[i]
        oyf = ys[i]
        nxf = float(tcol)
        nyf = float(trow)
        xs[i] = nxf
        ys[i] = nyf
        before = 0.0
        after = 0.0
        if j is None:
            # Dominant case: move into an empty site.  The only pin that
            # moves belongs to cell i, so the per-net old/new positions
            # are fixed and no shared-net test is needed.
            affected = nets_of[i]
            for k in affected:
                before += cost[k]
                if net_two[k]:
                    # two movable pins, no fixed: box is the min/max of
                    # the partner pin and the new position
                    bbox_fast += 1
                    o = net_psum[k] - i
                    x = xs[o]; y = ys[o]
                    if x < nxf: x0 = x; x1 = nxf
                    else: x0 = nxf; x1 = x
                    if y < nyf: y0 = y; y1 = nyf
                    else: y0 = nyf; y1 = y
                else:
                    x0 = bx0[k]; x1 = bx1[k]; y0 = by0[k]; y1 = by1[k]
                    if x0 < oxf < x1 and y0 < oyf < y1:
                        # the moved pin was strictly interior: the box
                        # can only grow toward the new position — O(1)
                        bbox_fast += 1
                        if nxf < x0: x0 = nxf
                        elif nxf > x1: x1 = nxf
                        if nyf < y0: y0 = nyf
                        elif nyf > y1: y1 = nyf
                    else:
                        # a boundary pin moved: the box may shrink
                        bbox_rescan += 1
                        p = net_head[k]
                        x0 = x1 = xs[p]
                        y0 = y1 = ys[p]
                        for p in net_tail[k]:
                            x = xs[p]; y = ys[p]
                            if x < x0: x0 = x
                            elif x > x1: x1 = x
                            if y < y0: y0 = y
                            elif y > y1: y1 = y
                        f = fx0l[k]
                        if f < x0: x0 = f
                        f = fx1l[k]
                        if f > x1: x1 = f
                        f = fy0l[k]
                        if f < y0: y0 = f
                        f = fy1l[k]
                        if f > y1: y1 = f
                hpwl = (x1 - x0) + (y1 - y0)
                after += (hpwl + hpwl * hpwl / _QUAD_K) * net_w[k]
        else:
            # Swap: walk the two sorted per-cell net lists with a merge
            # (ascending, duplicates collapse) instead of building sets
            # and sorting their union on every swap evaluation.  A net in
            # both lists has i and j swapping in place — pin positions
            # permute, so its box and cost cannot change.
            xs[j] = oxf
            ys[j] = oyf
            li = nets_of[i]
            lj = nets_of[j]
            la = len(li)
            lb = len(lj)
            u = li[0] if la else _BIG
            v = lj[0] if lb else _BIG
            a = 1
            b = 1
            affected = []
            ap = affected.append
            while True:
                if u < v:
                    k = u
                    u = li[a] if a < la else _BIG
                    a += 1
                    m = i; mx = nxf; my = nyf; pox = oxf; poy = oyf
                elif v < u:
                    k = v
                    v = lj[b] if b < lb else _BIG
                    b += 1
                    m = j; mx = oxf; my = oyf; pox = nxf; poy = nyf
                elif u == _BIG:
                    break
                else:
                    k = u
                    u = li[a] if a < la else _BIG
                    a += 1
                    v = lj[b] if b < lb else _BIG
                    b += 1
                    ap(k)
                    ck = cost[k]
                    before += ck
                    after += ck
                    continue
                ap(k)
                before += cost[k]
                if net_two[k]:
                    bbox_fast += 1
                    o = net_psum[k] - m
                    x = xs[o]; y = ys[o]
                    if x < mx: x0 = x; x1 = mx
                    else: x0 = mx; x1 = x
                    if y < my: y0 = y; y1 = my
                    else: y0 = my; y1 = y
                else:
                    x0 = bx0[k]; x1 = bx1[k]; y0 = by0[k]; y1 = by1[k]
                    if x0 < pox < x1 and y0 < poy < y1:
                        bbox_fast += 1
                        if mx < x0: x0 = mx
                        elif mx > x1: x1 = mx
                        if my < y0: y0 = my
                        elif my > y1: y1 = my
                    else:
                        bbox_rescan += 1
                        p = net_head[k]
                        x0 = x1 = xs[p]
                        y0 = y1 = ys[p]
                        for p in net_tail[k]:
                            x = xs[p]; y = ys[p]
                            if x < x0: x0 = x
                            elif x > x1: x1 = x
                            if y < y0: y0 = y
                            elif y > y1: y1 = y
                        f = fx0l[k]
                        if f < x0: x0 = f
                        f = fx1l[k]
                        if f > x1: x1 = f
                        f = fy0l[k]
                        if f < y0: y0 = f
                        f = fy1l[k]
                        if f > y1: y1 = f
                hpwl = (x1 - x0) + (y1 - y0)
                after += (hpwl + hpwl * hpwl / _QUAD_K) * net_w[k]
        delta = after - before
        if delta <= 0 or uniforms[step] < exp(-delta / temperature):
            # Commit: refresh the cached boxes/costs of the affected nets
            # by rescanning.  Acceptances are rare under the quench
            # schedule, so redoing the scan here is cheaper than staging
            # boxes on every evaluated move; the rescan reproduces the
            # evaluation's boxes exactly (the O(1) expansion equals a
            # rescan when the cache was current, and a swap-shared net's
            # rescan rewrites its unchanged box).
            accepted += 1
            running += delta
            for k in affected:
                p = net_head[k]
                x0 = x1 = xs[p]
                y0 = y1 = ys[p]
                for p in net_tail[k]:
                    x = xs[p]; y = ys[p]
                    if x < x0: x0 = x
                    elif x > x1: x1 = x
                    if y < y0: y0 = y
                    elif y > y1: y1 = y
                f = fx0l[k]
                if f < x0: x0 = f
                f = fx1l[k]
                if f > x1: x1 = f
                f = fy0l[k]
                if f < y0: y0 = f
                f = fy1l[k]
                if f > y1: y1 = f
                bx0[k] = x0; bx1[k] = x1; by0[k] = y0; by1[k] = y1
                hpwl = (x1 - x0) + (y1 - y0)
                cost[k] = (hpwl + hpwl * hpwl / _QUAD_K) * net_w[k]
            occupant[tkey] = i
            xi[i] = tcol
            yi[i] = trow
            okey = oxi * _ENC + oyi
            if j is not None:
                occupant[okey] = j
                xi[j] = oxi
                yi[j] = oyi
            else:
                del occupant[okey]
        else:
            xs[i] = oxf
            ys[i] = oyf
            if j is not None:
                xs[j] = nxf
                ys[j] = nyf
        temperature *= alpha
        # keep the best state seen (SA may end on an uphill excursion);
        # the same batch boundary drives the cost/temperature telemetry
        if step == next_checkpoint:
            next_checkpoint += checkpoint_every
            if running < best_cost:
                best_cost = running
                best_state = (list(xs), list(ys))
            sample("place.cost", running, step=step)
            sample("place.temperature", temperature, step=step)

    if running > best_cost:
        xs, ys = best_state
        final_cost = best_cost
        # the cost cache tracked the *final* walk, not the restored best
        # state — recompute before the clump pass reads it
        _bx0, _bx1, _by0, _by1, cost = _batch_boxes(nets, fixed_lo, fixed_hi, xs, ys)
    else:
        final_cost = running

    final_cost = _clump_pass(
        nets, nets_of, cost, xs, ys, ctypes,
        type_cols, type_rows, problem.site_pools, clump_passes, final_cost, n,
    )

    for i in range(n):
        sites[i, 0] = int(xs[i])
        sites[i, 1] = int(ys[i])
    incr("place.moves", budget)
    incr("place.accepted", accepted)
    incr("place.bbox.fast", bbox_fast)
    incr("place.bbox.rescan", bbox_rescan)
    sample("place.cost", min(final_cost, initial_cost))
    return AnnealStats(budget, accepted, initial_cost, min(final_cost, initial_cost))
