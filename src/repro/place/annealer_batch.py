"""Batched simulated-annealing move evaluation.

Same algorithm, same random streams, same accept/reject sequence as
:func:`repro.place._annealer_reference.anneal_reference` — but the move
loop is restructured around *speculative blocks*: a block of upcoming
moves is evaluated in one vectorized pass against the block-start
placement (targets, occupancy probes, cost deltas and even the
Metropolis decisions all come from NumPy structure-of-arrays views of
the placement), and a light serial sweep then walks the block in order,
visiting only the *interesting* positions — speculated acceptances,
near-threshold ties, and moves that an earlier in-block acceptance may
have invalidated.  Everything else is a single guarded ``continue``.
Block size adapts to the acceptance rate: hot blocks (many acceptances,
hence many conflicts) stay small, cold quench blocks grow to amortize
the vectorized pass.

Bit-identity is by construction, not hope:

* bounding boxes are min/max reductions — order-free and exact — and
  the "box without pin p" needed when a move displaces one pin comes
  from per-net (extreme, extreme-multiplicity, runner-up) statistics,
  again exact;
* per-move ``before``/``after`` sums replicate the reference's
  sequential ``acc += cost[k]`` fold by column-wise accumulation over a
  degree-padded matrix (the padding appends ``+ 0.0`` terms, which is
  IEEE-exact for the non-negative costs);
* the temperature ladder is the reference's own repeated ``t *= alpha``
  chain (``cumprod`` evaluates the same left-to-right products);
* Metropolis decisions are precomputed with ``np.exp`` plus a guard
  band many orders of magnitude wider than the possible discrepancy
  against the reference's scalar ``math.exp``; draws inside the band
  re-check with ``math.exp`` itself, so the decision stream is
  identical;
* in-block conflicts are over-approximated vectorized (the earliest
  speculated acceptance touching each cell / net / site) and confirmed
  with exact cell/net/site stamps, so a stale speculation is never
  trusted: a move whose *geometry* is stale re-derives everything with
  the reference's scalar arithmetic, a move whose net costs are stale
  re-scores just the stamped nets;
* acceptances whose touched entities were not part of the speculated
  set extend the interesting set for the rest of the block, so no
  conflicting move is ever skipped.

``tests/test_property_place.py`` asserts equivalence on random
problems; ``benchmarks/bench_hotpaths.py --vgg`` carries the speedup
gate against the retained scalar annealer.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .._util import make_rng
from ..obs.span import incr, sample
from .annealer import (
    AnnealStats,
    _QUAD_K,
    _batch_boxes,
    _clump_pass,
    _net_cost,
    _type_geometry,
)
from .problem import PlacementProblem

__all__ = ["anneal_batched"]

#: Reference implementation this tier is asserted bit-identical to
#: (the oracle contract; checked by ORC lint rules).
ORACLE = "repro.place._annealer_reference.anneal_reference"

#: Adaptive speculative-block bounds.  Hot blocks (high acceptance →
#: many in-block conflicts) shrink toward the minimum; quench blocks
#: grow toward the maximum to amortize the vectorized pass.
_BLOCK_MIN = 1024
_BLOCK_MAX = 8192
#: Target ``~_BLOCK_GAIN`` acceptances per block when adapting.
_BLOCK_GAIN = 600.0

#: Shared index pool so the ragged helpers skip per-call aranges.
_ARANGE = np.arange(1 << 16)


def _iota(total: int) -> np.ndarray:
    return _ARANGE[:total] if total <= _ARANGE.shape[0] else np.arange(total)


def _ragged_gather(offs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices covering ``[offs[i], offs[i] + counts[i])`` per row."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    start = np.repeat(offs, counts)
    local = _iota(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return start + local


def _pad_sums(values: np.ndarray, counts: np.ndarray, width: int) -> np.ndarray:
    """Per-row sums of ragged *values*, accumulated left to right.

    Scatters each row's entries into a ``width``-column matrix and folds
    the columns in order, reproducing the reference's sequential
    ``acc += v`` loop exactly (the padding only adds ``0.0``)."""
    n_rows = counts.shape[0]
    if values.shape[0] == 0:
        return np.zeros(n_rows, dtype=np.float64)
    row = np.repeat(_iota(n_rows), counts)
    pos = _iota(values.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    mat = np.zeros((n_rows, width), dtype=np.float64)
    mat[row, pos] = values
    acc = np.zeros(n_rows, dtype=np.float64)
    for c in range(width):
        acc = acc + mat[:, c]
    return acc


def _scatter_min(dst: np.ndarray, idx: np.ndarray, pos: np.ndarray) -> None:
    """``dst[idx] = min(dst[idx], pos)`` for duplicate-laden *idx*.

    Writes in descending *pos* order so the smallest position lands
    last; callers guarantee ``pos`` entries are below ``dst``'s fill."""
    order = np.argsort(pos, kind="stable")[::-1]
    dst[idx[order]] = pos[order]


class _NetStats:
    """Exact per-net extreme statistics for one block snapshot.

    For each referenced net: min/max of its movable-pin coordinates, the
    multiplicity of each extreme, and the runner-up value — enough to
    answer "bounding box of this net with pin *p* removed" in O(1),
    exactly (min/max are order-free, so the reconstruction matches the
    reference's full rescan bit for bit)."""

    __slots__ = ("index", "mnx", "cnx", "rnx", "mxx", "cxx", "rxx",
                 "mny", "cny", "rny", "mxy", "cxy", "rxy")

    def __init__(self, uniq_nets, net_offs, net_pins_flat, xs_a, ys_a, n_nets):
        counts = (net_offs[uniq_nets + 1] - net_offs[uniq_nets]).astype(np.intp)
        pins = net_pins_flat[_ragged_gather(net_offs[uniq_nets], counts)]
        offs = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.intp)
        self.index = np.full(n_nets, -1, dtype=np.intp)
        self.index[uniq_nets] = _iota(uniq_nets.shape[0])
        vals = np.empty((2, pins.shape[0]), dtype=np.float64)
        vals[0] = xs_a[pins]
        vals[1] = ys_a[pins]
        mx = np.maximum.reduceat(vals, offs, axis=1)
        mn = np.minimum.reduceat(vals, offs, axis=1)
        mx_rep = np.repeat(mx, counts, axis=1)
        mn_rep = np.repeat(mn, counts, axis=1)
        at_mx = vals == mx_rep
        at_mn = vals == mn_rep
        cx = np.add.reduceat(at_mx.astype(np.float64), offs, axis=1)
        cn = np.add.reduceat(at_mn.astype(np.float64), offs, axis=1)
        rx = np.maximum.reduceat(np.where(at_mx, -np.inf, vals), offs, axis=1)
        rn = np.minimum.reduceat(np.where(at_mn, np.inf, vals), offs, axis=1)
        self.mxx, self.mxy = mx[0], mx[1]
        self.mnx, self.mny = mn[0], mn[1]
        self.cxx, self.cxy = cx[0], cx[1]
        self.cnx, self.cny = cn[0], cn[1]
        self.rxx, self.rxy = rx[0], rx[1]
        self.rnx, self.rny = rn[0], rn[1]

    def boxes_excluding(self, slot, ex_x, ex_y):
        """Movable-pin box of each net (by *slot*) with one pin currently
        at ``(ex_x, ex_y)`` removed: if the removed value is the unique
        extreme the runner-up takes over, otherwise the extreme stands."""
        x1 = np.where((ex_x < self.mxx[slot]) | (self.cxx[slot] > 1.0),
                      self.mxx[slot], self.rxx[slot])
        x0 = np.where((ex_x > self.mnx[slot]) | (self.cnx[slot] > 1.0),
                      self.mnx[slot], self.rnx[slot])
        y1 = np.where((ex_y < self.mxy[slot]) | (self.cxy[slot] > 1.0),
                      self.mxy[slot], self.rxy[slot])
        y0 = np.where((ex_y > self.mny[slot]) | (self.cny[slot] > 1.0),
                      self.mny[slot], self.rny[slot])
        return x0, x1, y0, y1


def anneal_batched(
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

    Drop-in for :func:`repro.place.annealer.anneal_scalar` with
    identical results — see the module docstring for how the block
    speculation stays bit-identical.
    """
    rng = make_rng(seed)
    n = problem.n_movable
    if n == 0:
        return AnnealStats(0, 0, 0.0, 0.0)

    xs = sites[:, 0].astype(float).tolist()
    ys = sites[:, 1].astype(float).tolist()

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
    n_nets = len(nets)

    fixed_lo = np.full((n_nets, 2), np.inf)
    fixed_hi = np.full((n_nets, 2), -np.inf)
    for k, (_pins, fixed, _w) in enumerate(nets):
        if fixed:
            fa = np.asarray(fixed)
            fixed_lo[k] = fa.min(axis=0)
            fixed_hi[k] = fa.max(axis=0)

    _bx0, _bx1, _by0, _by1, cost = _batch_boxes(nets, fixed_lo, fixed_hi, xs, ys)
    initial_cost = sum(cost)

    ctypes = problem.ctypes
    type_cols, type_rows = _type_geometry(problem)

    budget = min(max_moves, moves_per_cell * n)
    if budget <= 0:
        return AnnealStats(0, 0, initial_cost, initial_cost)

    t0 = max(0.5, 0.12 * initial_cost / max(1, n_nets))
    t_end = t0 * t_end_frac
    alpha = (t_end / t0) ** (1.0 / budget)

    cell_picks = rng.integers(0, n, size=budget)
    uniforms_a = rng.random(size=budget)
    uniforms = uniforms_a.tolist()
    pool_picks = rng.random(size=budget)
    offset_picks = rng.random(size=(budget, 2))
    # Independent pool index for the global-hop branch, drawn after every
    # other stream so the non-hop draws above are unchanged.
    hop_picks = rng.random(size=budget)

    c0b, r0b, c1b, r1b = problem.bounds()
    w_max = max(8.0, max(c1b - c0b, r1b - r0b))
    w_min = 6.0

    # Per-step offsets and the temperature ladder depend only on the
    # step index.  The ladder must be the reference's repeated
    # ``t *= alpha`` — cumprod seeded with t0 evaluates the exact same
    # left-to-right product chain.
    windows = np.maximum(
        w_min, w_max * (1.0 - np.arange(budget, dtype=np.float64) / budget)
    )
    dxs = (offset_picks[:, 0] * 2.0 - 1.0) * windows
    dys = (offset_picks[:, 1] * 2.0 - 1.0) * windows
    ladder = np.full(budget, alpha, dtype=np.float64)
    ladder[0] = t0
    temps_a = np.cumprod(ladder)
    temps = temps_a.tolist()

    # --- structure-of-arrays views of the placement -------------------
    nrows_dev = problem.device.nrows
    ncols_dev = problem.device.ncols
    nsites = ncols_dev * nrows_dev
    xs_a = np.asarray(xs, dtype=np.float64)
    ys_a = np.asarray(ys, dtype=np.float64)

    pin_counts = np.array([len(p) for p, _f, _w in nets], dtype=np.intp)
    net_offs = np.concatenate(([0], np.cumsum(pin_counts))).astype(np.intp)
    net_pins_flat = np.fromiter(
        (i for p, _f, _w in nets for i in p), dtype=np.intp,
        count=int(pin_counts.sum()))
    deg = np.array([len(l) for l in nets_of], dtype=np.intp)
    cell_net_offs = np.concatenate(([0], np.cumsum(deg))).astype(np.intp)
    cell_nets_flat = np.fromiter(
        (k for l in nets_of for k in l), dtype=np.intp, count=int(deg.sum()))
    max_deg = int(deg.max()) if n else 0
    weights_a = np.array([w for _p, _f, w in nets], dtype=np.float64)
    flo_x = fixed_lo[:, 0]
    flo_y = fixed_lo[:, 1]
    fhi_x = fixed_hi[:, 0]
    fhi_y = fixed_hi[:, 1]
    cost_a = np.asarray(cost, dtype=np.float64)

    # dense occupancy: site key = col * nrows + row, -1 empty
    occ_a = np.full(nsites, -1, dtype=np.int64)
    occ_a[xs_a.astype(np.int64) * nrows_dev + ys_a.astype(np.int64)] = np.arange(n)

    # per-type geometry, int-indexed
    tmap = {ct: t for t, ct in enumerate(sorted(set(ctypes)))}
    cell_t = [tmap[ct] for ct in ctypes]
    cell_t_a = np.array(cell_t, dtype=np.int64)
    cell_cols = [type_cols[ct] for ct in ctypes]
    cell_rmin = [type_rows[ct][0] for ct in ctypes]
    cell_rmax = [type_rows[ct][1] for ct in ctypes]
    t_cols: list = [None] * len(tmap)
    t_rmin = [0] * len(tmap)
    t_rmax = [0] * len(tmap)
    t_grid: list = [None] * len(tmap)
    t_pool: list = [None] * len(tmap)
    for ct, t in tmap.items():
        t_cols[t] = np.asarray(type_cols[ct], dtype=np.int64)
        t_rmin[t], t_rmax[t] = type_rows[ct]
        grid = np.zeros(nsites, dtype=bool)
        pool = np.asarray(problem.site_pools[ct], dtype=np.int64)
        grid[pool[:, 0] * nrows_dev + pool[:, 1]] = True
        t_grid[t] = grid
        t_pool[t] = pool

    # block-dirty stamps: a cell / net / site touched by an in-block
    # acceptance invalidates later speculated decisions that read it
    cell_stamp = [0] * n
    net_stamp = [0] * n_nets
    site_stamp = [0] * nsites

    exp = math.exp
    accepted = 0
    kept = 0
    redone = 0
    running = initial_cost
    best_cost = initial_cost
    best_state = (list(xs), list(ys))
    checkpoint_every = max(1, budget // 32)
    next_checkpoint = 0

    # Per-block state rebound on every iteration; the two closures below
    # read whichever block is current.
    blk = 0
    ii = j0 = tkey_b = cell_first = site_first = net_first = None
    em_move_a = em_net_a = sm_move_a = sm_net_a = None
    interesting_l: list = []

    def _apply(i, j, tc, tr, tkey, oxi, oyi, oxf, oyf):
        # positions, occupancy and dirty stamps; net costs are the
        # caller's job (their source differs per path)
        nxf = float(tc)
        nyf = float(tr)
        xs[i] = nxf
        ys[i] = nyf
        xs_a[i] = nxf
        ys_a[i] = nyf
        okey = oxi * nrows_dev + oyi
        occ_a[tkey] = i
        cell_stamp[i] = blk
        site_stamp[tkey] = blk
        site_stamp[okey] = blk
        for k in nets_of[i]:
            net_stamp[k] = blk
        if j >= 0:
            xs[j] = oxf
            ys[j] = oyf
            xs_a[j] = oxf
            ys_a[j] = oyf
            occ_a[okey] = j
            cell_stamp[j] = blk
            for k in nets_of[j]:
                net_stamp[k] = blk
        else:
            occ_a[okey] = -1

    def _extend(mpos, i2, j2, key_t, key_o):
        # An acceptance touched entities outside the speculated-accept
        # cover: mark every later in-block move referencing them as
        # interesting so the sweep re-checks it.  Scans cover only the
        # tail of the block past the acceptance.
        base = mpos + 1
        mask = None
        if cell_first[i2] > mpos:
            cell_first[i2] = mpos
            mask = (ii[base:] == i2) | (j0[base:] == i2)
        if j2 >= 0 and cell_first[j2] > mpos:
            cell_first[j2] = mpos
            m2 = (ii[base:] == j2) | (j0[base:] == j2)
            mask = m2 if mask is None else mask | m2
        if site_first[key_t] > mpos:
            site_first[key_t] = mpos
            m2 = tkey_b[base:] == key_t
            mask = m2 if mask is None else mask | m2
        if site_first[key_o] > mpos:
            site_first[key_o] = mpos
            m2 = tkey_b[base:] == key_o
            mask = m2 if mask is None else mask | m2
        stale = None
        for k in nets_of[i2]:
            if net_first[k] > mpos:
                if stale is None:
                    stale = [k]
                else:
                    stale.append(k)
        if j2 >= 0:
            for k in nets_of[j2]:
                if net_first[k] > mpos:
                    if stale is None:
                        stale = [k]
                    else:
                        stale.append(k)
        if stale is not None:
            for k in stale:
                net_first[k] = mpos
                if em_net_a.size:
                    for p in em_move_a[em_net_a == k].tolist():
                        if p > mpos:
                            interesting_l[p] = True
                if sm_net_a.size:
                    for p in sm_move_a[sm_net_a == k].tolist():
                        if p > mpos:
                            interesting_l[p] = True
        if mask is not None:
            for p in np.flatnonzero(mask).tolist():
                interesting_l[base + p] = True

    b0 = 0
    nb_next = _BLOCK_MIN
    while b0 < budget:
        b1 = min(budget, b0 + nb_next)
        nb = b1 - b0
        blk += 1
        block_acc0 = accepted

        # ---- vectorized speculation against the block-start state ----
        ii = cell_picks[b0:b1]
        oxi_b = xs_a[ii].astype(np.int64)
        oyi_b = ys_a[ii].astype(np.int64)
        hop = pool_picks[b0:b1] < 0.05
        tcol = np.zeros(nb, dtype=np.int64)
        trow = np.zeros(nb, dtype=np.int64)
        valid = np.ones(nb, dtype=bool)
        tb = cell_t_a[ii]
        for t in range(len(tmap)):
            mt = tb == t
            if not mt.any():
                continue
            mh = mt & hop
            if mh.any():
                pool = t_pool[t]
                npool = pool.shape[0]
                idx = (hop_picks[b0:b1][mh] * npool).astype(np.int64) % npool
                tcol[mh] = pool[idx, 0]
                trow[mh] = pool[idx, 1]
            mnh = mt & ~hop
            if mnh.any():
                cols = t_cols[t]
                nc = cols.shape[0]
                want_col = oxi_b[mnh] + dxs[b0:b1][mnh]
                k = np.searchsorted(cols, want_col, side="left")
                k = np.minimum(k, nc - 1)
                # bisect_left leaves cols[k-1] < want <= cols[k]; both
                # distances are nonnegative, so the abs() folds away
                back = (k > 0) & (
                    want_col - cols[np.maximum(k - 1, 0)] < cols[k] - want_col
                )
                k = k - back.astype(np.int64)
                tc = cols[k]
                want_row = oyi_b[mnh] + dys[b0:b1][mnh]
                tr = np.clip(want_row, t_rmin[t], t_rmax[t]).astype(np.int64)
                tcol[mnh] = tc
                trow[mnh] = tr
                valid[mnh] = t_grid[t][tc * nrows_dev + tr]
        same = (tcol == oxi_b) & (trow == oyi_b)
        eligible = valid & ~same
        tkey_b = tcol * nrows_dev + trow
        j0 = np.where(eligible, occ_a[tkey_b], -1)

        em = np.flatnonzero(eligible & (j0 < 0))
        sm = np.flatnonzero(eligible & (j0 >= 0))

        delta_b = np.zeros(nb, dtype=np.float64)
        mstart = np.zeros(nb, dtype=np.int64)
        mend = np.zeros(nb, dtype=np.int64)
        em_nets: list = []
        em_newc: list = []
        sm_nets: list = []
        sm_newc: list = []
        sm_shared: list = []
        em_move_a = np.empty(0, dtype=np.intp)
        em_net_a = np.empty(0, dtype=np.intp)
        sm_move_a = np.empty(0, dtype=np.intp)
        sm_net_a = np.empty(0, dtype=np.intp)

        ref = []
        if em.size:
            ref.append(cell_nets_flat[_ragged_gather(cell_net_offs[ii[em]], deg[ii[em]])])
        if sm.size:
            ref.append(cell_nets_flat[_ragged_gather(cell_net_offs[ii[sm]], deg[ii[sm]])])
            ref.append(cell_nets_flat[_ragged_gather(cell_net_offs[j0[sm]], deg[j0[sm]])])
        if ref:
            refmask = np.zeros(n_nets, dtype=bool)
            for part in ref:
                refmask[part] = True
            stats = _NetStats(np.flatnonzero(refmask),
                              net_offs, net_pins_flat, xs_a, ys_a, n_nets)

        if em.size:
            # single-cell move into an empty site: only i's pin moves
            d_em = deg[ii[em]]
            pr_net = cell_nets_flat[_ragged_gather(cell_net_offs[ii[em]], d_em)]
            pr_move = np.repeat(em, d_em)
            cells = ii[pr_move]
            slot = stats.index[pr_net]
            x0, x1, y0, y1 = stats.boxes_excluding(slot, xs_a[cells], ys_a[cells])
            nx = tcol[pr_move].astype(np.float64)
            ny = trow[pr_move].astype(np.float64)
            x1 = np.maximum(np.maximum(x1, nx), fhi_x[pr_net])
            x0 = np.minimum(np.minimum(x0, nx), flo_x[pr_net])
            y1 = np.maximum(np.maximum(y1, ny), fhi_y[pr_net])
            y0 = np.minimum(np.minimum(y0, ny), flo_y[pr_net])
            hpwl = (x1 - x0) + (y1 - y0)
            newc = (hpwl + hpwl * hpwl / _QUAD_K) * weights_a[pr_net]
            delta_b[em] = (
                _pad_sums(newc, d_em, max_deg)
                - _pad_sums(cost_a[pr_net], d_em, max_deg)
            )
            offs = np.concatenate(([0], np.cumsum(d_em)))
            mstart[em] = offs[:-1]
            mend[em] = offs[1:]
            em_nets = pr_net.tolist()
            em_newc = newc.tolist()
            em_move_a = pr_move
            em_net_a = pr_net

        if sm.size:
            # swap: merged (ascending, duplicates collapsed) net list per
            # move — the reference's sorted(set(nets_of[i] + nets_of[j]))
            ci = ii[sm]
            cj = j0[sm]
            di = deg[ci]
            dj = deg[cj]
            pr_move = np.concatenate((np.repeat(sm, di), np.repeat(sm, dj)))
            pr_net = np.concatenate((
                cell_nets_flat[_ragged_gather(cell_net_offs[ci], di)],
                cell_nets_flat[_ragged_gather(cell_net_offs[cj], dj)],
            ))
            pr_side = np.concatenate((
                np.zeros(int(di.sum()), dtype=np.int64),
                np.ones(int(dj.sum()), dtype=np.int64),
            ))
            order = np.lexsort((pr_side, pr_net, pr_move))
            pr_move = pr_move[order]
            pr_net = pr_net[order]
            pr_side = pr_side[order]
            key = pr_move * n_nets + pr_net
            first = np.ones(key.shape[0], dtype=bool)
            first[1:] = key[1:] != key[:-1]
            shared = np.zeros(key.shape[0], dtype=bool)
            shared[:-1] = key[:-1] == key[1:]
            pr_move = pr_move[first]
            pr_net = pr_net[first]
            pr_side = pr_side[first]
            shared = shared[first]
            # the moved pin of each (swap, net) pair and its destination;
            # a net shared by both cells permutes its pins in place —
            # cost unchanged, but it still joins both sequential sums
            mover = np.where(pr_side == 0, ii[pr_move], j0[pr_move])
            nx = np.where(pr_side == 0, tcol[pr_move], oxi_b[pr_move]).astype(np.float64)
            ny = np.where(pr_side == 0, trow[pr_move], oyi_b[pr_move]).astype(np.float64)
            slot = stats.index[pr_net]
            x0, x1, y0, y1 = stats.boxes_excluding(slot, xs_a[mover], ys_a[mover])
            x1 = np.maximum(np.maximum(x1, nx), fhi_x[pr_net])
            x0 = np.minimum(np.minimum(x0, nx), flo_x[pr_net])
            y1 = np.maximum(np.maximum(y1, ny), fhi_y[pr_net])
            y0 = np.minimum(np.minimum(y0, ny), flo_y[pr_net])
            hpwl = (x1 - x0) + (y1 - y0)
            newc = (hpwl + hpwl * hpwl / _QUAD_K) * weights_a[pr_net]
            newc = np.where(shared, cost_a[pr_net], newc)
            counts = np.bincount(pr_move, minlength=nb)[sm].astype(np.intp)
            delta_b[sm] = (
                _pad_sums(newc, counts, 2 * max_deg)
                - _pad_sums(cost_a[pr_net], counts, 2 * max_deg)
            )
            offs = np.concatenate(([0], np.cumsum(counts)))
            mstart[sm] = offs[:-1]
            mend[sm] = offs[1:]
            sm_nets = pr_net.tolist()
            sm_newc = newc.tolist()
            sm_shared = shared.tolist()
            sm_move_a = pr_move
            sm_net_a = pr_net

        # ---- vectorized Metropolis decisions -------------------------
        # np.exp and math.exp agree to a few ulp; draws inside a hugely
        # wider guard band re-check with math.exp in the sweep, so the
        # accept stream is the reference's own.
        arg = np.minimum(0.0, np.negative(delta_b) / temps_a[b0:b1])
        ex = np.exp(arg)
        guard = 1e-9 * ex + 1e-12
        u_b = uniforms_a[b0:b1]
        pos_d = delta_b > 0.0
        spec_acc = eligible & (~pos_d | (u_b < ex - guard))
        band = eligible & pos_d & (u_b >= ex - guard) & (u_b <= ex + guard)

        # ---- conflict pre-screen: earliest speculated acceptance -----
        # touching each cell / site / net.  A move can only be stale if
        # one of its entities was touched strictly before it; checking
        # against *speculated* acceptances over-approximates the real
        # accept set, which is safe (extras just get stamp-checked).
        cell_first = np.full(n, nb, dtype=np.int64)
        site_first = np.full(nsites, nb, dtype=np.int64)
        net_first = np.full(n_nets, nb, dtype=np.int64)
        acc_idx = np.flatnonzero(spec_acc)
        if acc_idx.size:
            aj = j0[acc_idx]
            has_j = aj >= 0
            _scatter_min(cell_first,
                         np.concatenate((ii[acc_idx], aj[has_j])),
                         np.concatenate((acc_idx, acc_idx[has_j])))
            okey_acc = oxi_b[acc_idx] * nrows_dev + oyi_b[acc_idx]
            _scatter_min(site_first,
                         np.concatenate((tkey_b[acc_idx], okey_acc)),
                         np.concatenate((acc_idx, acc_idx)))
            parts_n: list = []
            parts_p: list = []
            if em_net_a.size:
                sel = spec_acc[em_move_a]
                parts_n.append(em_net_a[sel])
                parts_p.append(em_move_a[sel])
            if sm_net_a.size:
                sel = spec_acc[sm_move_a]
                parts_n.append(sm_net_a[sel])
                parts_p.append(sm_move_a[sel])
            if parts_n:
                _scatter_min(net_first,
                             np.concatenate(parts_n), np.concatenate(parts_p))
        ar = _ARANGE[:nb]
        conf = cell_first[ii] < ar
        conf |= site_first[tkey_b] < ar
        jj = j0 >= 0
        if jj.any():
            conf[jj] |= cell_first[j0[jj]] < ar[jj]
        if em_net_a.size:
            hit = net_first[em_net_a] < em_move_a
            conf[em_move_a[hit]] = True
        if sm_net_a.size:
            hit = net_first[sm_net_a] < sm_move_a
            conf[sm_move_a[hit]] = True

        interesting = spec_acc | band | conf
        scp = -(-b0 // checkpoint_every) * checkpoint_every
        while scp < b1:
            interesting[scp - b0] = True
            scp += checkpoint_every

        # ---- serial sweep over the interesting positions -------------
        spec_l = spec_acc.tolist()
        band_l = band.tolist()
        elig_l = eligible.tolist()
        interesting_l = interesting.tolist()

        for m, live in enumerate(interesting_l):
            if not live:
                continue
            s = b0 + m
            i = ii[m]
            j = -1
            if cell_stamp[i] == blk:
                # the moved cell itself changed position: target
                # derivation is stale, re-derive everything with the
                # reference's arithmetic
                redone += 1
                oxf = xs[i]
                oyf = ys[i]
                oxi = int(oxf)
                oyi = int(oyf)
                if pool_picks[s] < 0.05:
                    pool = t_pool[cell_t[i]]
                    npool = pool.shape[0]
                    srow = pool[int(hop_picks[s] * npool) % npool]
                    tc, tr = int(srow[0]), int(srow[1])
                else:
                    want_col = oxi + dxs[s]
                    cols = cell_cols[i]
                    nc = len(cols)
                    k = bisect_left(cols, want_col, 0, nc)
                    if k >= nc:
                        k = nc - 1
                    elif k > 0 and want_col - cols[k - 1] < cols[k] - want_col:
                        k -= 1
                    tc = cols[k]
                    want_row = oyi + dys[s]
                    lo = cell_rmin[i]
                    hi = cell_rmax[i]
                    tr = int(lo if want_row < lo else hi if want_row > hi else want_row)
                    if not t_grid[cell_t[i]][tc * nrows_dev + tr]:
                        continue
                if tc == oxi and tr == oyi:
                    continue
                tkey = tc * nrows_dev + tr
                j = int(occ_a[tkey])
                affected = nets_of[i] if j < 0 else sorted(set(nets_of[i] + nets_of[j]))
                before = 0.0
                for k in affected:
                    before += cost[k]
                xs[i] = float(tc)
                ys[i] = float(tr)
                if j >= 0:
                    xs[j] = float(oxi)
                    ys[j] = float(oyi)
                after = 0.0
                new_costs = []
                for k in affected:
                    pins, fixed, w = nets[k]
                    ck = _net_cost(pins, fixed, xs, ys, w)
                    new_costs.append(ck)
                    after += ck
                delta = after - before
                if delta <= 0 or uniforms[s] < exp(-delta / temps[s]):
                    accepted += 1
                    running += delta
                    for k, ck in zip(affected, new_costs):
                        cost[k] = ck
                        cost_a[k] = ck
                    _apply(i, j, tc, tr, tkey, oxi, oyi, oxf, oyf)
                    _extend(m, i, j, tkey, oxi * nrows_dev + oyi)
                else:
                    xs[i] = oxf
                    ys[i] = oyf
                    if j >= 0:
                        xs[j] = float(tc)
                        ys[j] = float(tr)
            elif not elig_l[m]:
                continue
            elif (site_stamp[tkey_b[m]] == blk
                  or (j0[m] >= 0 and cell_stamp[j0[m]] == blk)):
                # the target site's occupancy changed but the moved cell
                # did not: the speculated target is still the one the
                # reference would derive — probe the live occupant and
                # re-score, reusing speculated net costs wherever the
                # net is unstamped and untangled from either occupant
                redone += 1
                tc = int(tcol[m])
                tr = int(trow[m])
                tkey = tkey_b[m]
                if j0[m] >= 0:
                    knets = sm_nets
                    knewc = sm_newc
                    kshared = sm_shared
                else:
                    knets = em_nets
                    knewc = em_newc
                    kshared = None
                ms_ = mstart[m]
                me_ = mend[m]
                j = int(occ_a[tkey])
                if j < 0:
                    jnets = ()
                    affected = nets_of[i]
                else:
                    jnets = nets_of[j]
                    affected = sorted(set(nets_of[i] + jnets))
                before = 0.0
                for k in affected:
                    before += cost[k]
                oxf = xs[i]
                oyf = ys[i]
                oxi = int(oxf)
                oyi = int(oyf)
                xs[i] = float(tc)
                ys[i] = float(tr)
                if j >= 0:
                    xs[j] = float(oxi)
                    ys[j] = float(oyi)
                after = 0.0
                new_costs = []
                for k in affected:
                    ck = None
                    if net_stamp[k] != blk and (j < 0 or k not in jnets):
                        # an i-side net whose pins are all unmoved: the
                        # speculated cost is the reference's own value
                        # (shared-with-old-occupant entries permuted in
                        # place and must be rescored instead)
                        for q in range(ms_, me_):
                            if knets[q] == k:
                                if kshared is None or not kshared[q]:
                                    ck = knewc[q]
                                break
                    if ck is None:
                        pins, fixed, w = nets[k]
                        ck = _net_cost(pins, fixed, xs, ys, w)
                    new_costs.append(ck)
                    after += ck
                delta = after - before
                if delta <= 0 or uniforms[s] < exp(-delta / temps[s]):
                    accepted += 1
                    running += delta
                    for k, ck in zip(affected, new_costs):
                        cost[k] = ck
                        cost_a[k] = ck
                    _apply(i, j, tc, tr, tkey, oxi, oyi, oxf, oyf)
                    _extend(m, i, j, tkey, oxi * nrows_dev + oyi)
                else:
                    xs[i] = oxf
                    ys[i] = oyf
                    if j >= 0:
                        xs[j] = float(tc)
                        ys[j] = float(tr)
            else:
                j = j0[m]
                netdirty = False
                for k in nets_of[i]:
                    if net_stamp[k] == blk:
                        netdirty = True
                        break
                if not netdirty and j >= 0:
                    for k in nets_of[j]:
                        if net_stamp[k] == blk:
                            netdirty = True
                            break
                if not netdirty:
                    kept += 1
                    take = spec_l[m]
                    band_taken = False
                    if not take and band_l[m]:
                        take = uniforms[s] < exp(-delta_b[m] / temps[s])
                        band_taken = take
                    if take:
                        accepted += 1
                        running += delta_b[m]
                        tc = int(tcol[m])
                        tr = int(trow[m])
                        tkey = tkey_b[m]
                        oxf = xs[i]
                        oyf = ys[i]
                        oxi = int(oxf)
                        oyi = int(oyf)
                        _apply(i, j, tc, tr, tkey, oxi, oyi, oxf, oyf)
                        if j >= 0:
                            knets = sm_nets
                            knewc = sm_newc
                        else:
                            knets = em_nets
                            knewc = em_newc
                        for q in range(mstart[m], mend[m]):
                            k = knets[q]
                            ck = knewc[q]
                            cost[k] = ck
                            cost_a[k] = ck
                        if band_taken:
                            # a band acceptance was not in the
                            # speculated-accept cover
                            _extend(m, i, j, tkey, oxi * nrows_dev + oyi)
                else:
                    # geometry still valid, only some net costs stale:
                    # re-score just the stamped nets, keep the rest
                    redone += 1
                    tc = int(tcol[m])
                    tr = int(trow[m])
                    tkey = tkey_b[m]
                    ms_ = mstart[m]
                    me_ = mend[m]
                    if j >= 0:
                        knets = sm_nets
                        knewc = sm_newc
                    else:
                        knets = em_nets
                        knewc = em_newc
                    before = 0.0
                    for q in range(ms_, me_):
                        before += cost[knets[q]]
                    oxf = xs[i]
                    oyf = ys[i]
                    oxi = int(oxf)
                    oyi = int(oyf)
                    xs[i] = float(tc)
                    ys[i] = float(tr)
                    if j >= 0:
                        xs[j] = oxf
                        ys[j] = oyf
                    after = 0.0
                    new_costs = []
                    for q in range(ms_, me_):
                        k = knets[q]
                        if net_stamp[k] == blk:
                            pins, fixed, w = nets[k]
                            ck = _net_cost(pins, fixed, xs, ys, w)
                        else:
                            ck = knewc[q]
                        new_costs.append(ck)
                        after += ck
                    delta = after - before
                    if delta <= 0 or uniforms[s] < exp(-delta / temps[s]):
                        accepted += 1
                        running += delta
                        for q in range(ms_, me_):
                            k = knets[q]
                            ck = new_costs[q - ms_]
                            cost[k] = ck
                            cost_a[k] = ck
                        _apply(i, j, tc, tr, tkey, oxi, oyi, oxf, oyf)
                        if not spec_l[m]:
                            _extend(m, i, j, tkey, oxi * nrows_dev + oyi)
                    else:
                        xs[i] = oxf
                        ys[i] = oyf
                        if j >= 0:
                            xs[j] = float(tc)
                            ys[j] = float(tr)
            # keep the best state seen (SA may end on an uphill
            # excursion); skipped moves bypass this, and a missed
            # checkpoint stalls the chain — exactly as in the reference
            if s == next_checkpoint:
                next_checkpoint += checkpoint_every
                if running < best_cost:
                    best_cost = running
                    best_state = (list(xs), list(ys))
                sample("place.cost", running, step=s)
                sample("place.temperature", temps[s], step=s)

        # adapt: hot blocks conflict quadratically, cold blocks amortize
        block_rate = (accepted - block_acc0) / nb
        nb_next = min(_BLOCK_MAX,
                      max(_BLOCK_MIN, int(_BLOCK_GAIN / max(block_rate, 0.075))))
        b0 = b1

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
    incr("place.batch.kept", kept)
    incr("place.batch.redone", redone)
    sample("place.cost", min(final_cost, initial_cost))
    return AnnealStats(budget, accepted, initial_cost, min(final_cost, initial_cost))
