"""Native annealer core: on-demand C build behind a ctypes binding.

The hottest loop in the repo — the placer's Metropolis sweep — runs in C
(``_anneal_core.c``): the algorithm of
:func:`repro.place._annealer_reference.anneal_reference` with per-net
bounding boxes cached and updated incrementally instead of rescanned on
every move, and its clump post-pass as a second entry point over the
same arrays.  It is compiled once per source hash with the system C
compiler (``-O2 -ffp-contract=off``, no fast-math, so IEEE double
semantics match CPython exactly) and cached under the user's cache
directory.  Everything crossing the boundary is a flat numpy array:
positions, net CSR, per-type site geometry, the RNG streams, and the
occupancy grid.

What stays Python here is set-up, and none of it walks nets: the net CSR
is the problem's :class:`~repro.place.problem.NetColumns` masked by
:data:`~repro.place.annealer.MAX_PINS`, the cell -> nets CSR one stable
``argsort`` of it, the initial boxes one ``reduceat``.  The RNG streams
come from :func:`~repro.place.annealer.move_streams`, the one function
the reference draws them from too — their values *are* the bit-identity
contract.  The cell picks arrive whole; the four float streams arrive in
chunks of :data:`~repro.place.annealer.STREAM_CHUNK` steps with the
values of one-shot draws, and the sweep is one resumable C call per
chunk that carries its loop state between calls, so the streams take
O(chunk) memory rather than O(budget).

:func:`repro.place.annealer.anneal` runs it whenever it loads.  Where it
cannot — no compiler and no cached build, a failed build, or
``REPRO_NATIVE=0`` — the reference runs instead: bit-identical sites and
statistics (``tests/test_property_place.py`` asserts it under
Hypothesis), slower (:mod:`repro.place.annealer` says by how much).
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from .._native import build_library
from .._util import make_rng, sum_left_to_right
from ..obs.span import incr, sample
from . import annealer
from .annealer import _QUAD_K, MAX_PINS, T_END_FRAC, AnnealStats, move_streams
from .problem import NetColumns, PlacementProblem

__all__ = ["anneal_native", "native_available"]

#: Reference implementation this tier is asserted bit-identical to
#: (the oracle contract; checked by ORC lint rules).
ORACLE = "repro.place._annealer_reference.anneal_reference"

_SOURCE = Path(__file__).with_name("_anneal_core.c")


@functools.cache
def _core():
    """The core's ``(sweep, clump)`` CDLL functions, or ``None`` when it is
    unavailable; built and loaded once."""
    lib = build_library(_SOURCE, "anneal_core")
    if lib is None:
        return None
    I = ctypes.c_int64
    D = ctypes.c_double
    P = ctypes.c_void_p
    sweep = lib.anneal_sweep
    sweep.restype = None
    sweep.argtypes = (
        [I, I, I, I, D, I]           # n, budget, nrows, nsites, alpha, ckpt
        + [P] * 2                    # xs, ys
        + [P] * 2                    # net_offs, net_pins
        + [P] * 4                    # fx0, fx1, fy0, fy1
        + [P] * 3                    # net_w, net_two, net_psum
        + [P] * 5                    # bx0, bx1, by0, by1, cost
        + [P] * 2                    # cell_net_offs, cell_nets
        + [P] * 2                    # occ, cell_t
        + [P] * 2                    # tcols_offs, tcols_flat
        + [P] * 2                    # trmin, trmax
        + [P] * 3                    # grids, pool_offs, pool_flat
        + [P]                        # cell_picks
        + [D] * 2                    # w_min, w_max
        + [P] * 2                    # best_xs, best_ys
        + [P]                        # affected workspace
        + [P] * 3                    # ck_steps, ck_cost, ck_temp
        + [P] * 2                    # out_i, out_d (loop state)
        + [I] * 2                    # step_begin, step_end
        + [P] * 4                    # chunk: uniforms, pool, hop, offsets
    )
    clump = lib.clump_pass
    clump.restype = None
    clump.argtypes = (
        [I] * 5                      # n, n_nets, nrows, nsites, passes
        + [P] * 2                    # xs, ys
        + [P] * 2                    # net_offs, net_pins
        + [P] * 4                    # fx0, fx1, fy0, fy1
        + [P] * 2                    # net_w, cost
        + [P] * 2                    # cell_net_offs, cell_nets
        + [P] * 2                    # occ, cell_t
        + [P] * 2                    # tcols_offs, tcols_flat
        + [P] * 2                    # trmin, trmax
        + [P]                        # grids
        + [P] * 2                    # affected, sums workspaces
        + [P] * 2                    # order_a, order_b workspaces
        + [P]                        # median workspace
        + [P]                        # final_cost (in/out)
    )
    return sweep, clump


def native_available() -> bool:
    """True when the C core compiled (or was cached) and loaded."""
    return _core() is not None


def _ptr(a: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(a.ctypes.data)


def _net_costs(nets: NetColumns, xs: np.ndarray, ys: np.ndarray):
    """Bounding boxes and costs of all *nets* at once: ``x0, x1, y0, y1,
    cost``.  Min/max and the cost polynomial are the IEEE operations the
    scalar :func:`repro.place.annealer._net_cost` performs, so the values
    are bit-identical to it."""
    x0, x1, y0, y1 = nets.boxes(xs, ys)
    hpwl = (x1 - x0) + (y1 - y0)
    return x0, x1, y0, y1, (hpwl + hpwl * hpwl / _QUAD_K) * nets.weight


def anneal_native(
    problem: PlacementProblem,
    sites: np.ndarray,
    *,
    seed: int | np.random.Generator = 0,
    moves_per_cell: int,
    max_moves: int,
) -> AnnealStats:
    """Refine *sites* in place via the C sweep; returns statistics.

    Drop-in for :func:`repro.place._annealer_reference.anneal_reference`
    with bit-identical results.  Raises ``RuntimeError`` if the native
    core is unavailable — callers dispatch through
    :func:`repro.place.annealer.anneal`, which checks first and emits
    the ``place.moves`` / ``place.accepted`` counters from the returned
    statistics.
    """
    core = _core()
    if core is None:
        raise RuntimeError("native annealer core unavailable")
    sweep, clump = core
    rng = make_rng(seed)
    n = problem.n_movable
    if n == 0:
        return AnnealStats(0, 0, 0.0, 0.0)

    # Small-net working set: the problem's net CSR masked by MAX_PINS —
    # net -> pins and cell -> nets in CSR form, per-net weight and
    # fixed-pin extremes (infinities vanish under min/max), and the
    # two-movable-pin shortcut columns.
    cols = problem.columns
    nets = cols.select(cols.count + cols.n_fixed <= MAX_PINS)
    n_nets = nets.weight.shape[0]
    if not n_nets:
        return AnnealStats(0, 0, 0.0, 0.0)
    pin_counts = nets.count
    if not pin_counts.all():
        raise ValueError(
            f"net {int(np.flatnonzero(pin_counts == 0)[0])} of the annealed set has no "
            "movable pin (PlacementProblem.from_design never keeps one)"
        )
    net_offs, net_pins, net_w = nets.offs, nets.pins, nets.weight
    two = (pin_counts == 2) & (nets.n_fixed == 0)
    heads = net_offs[:-1][two]
    net_psum = np.zeros(n_nets, dtype=np.int64)
    net_psum[two] = net_pins[heads] + net_pins[heads + 1]
    net_two = two.astype(np.uint8)
    # stable sort by cell keeps each cell's nets ascending, like the
    # per-cell lists the reference appends to in net order
    cell_nets = np.repeat(np.arange(n_nets, dtype=np.int64), pin_counts)[
        np.argsort(net_pins, kind="stable")
    ]
    deg = np.bincount(net_pins, minlength=n)
    cell_net_offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=cell_net_offs[1:])

    xs_a = sites[:, 0].astype(np.float64)
    ys_a = sites[:, 1].astype(np.float64)
    fx0 = np.ascontiguousarray(nets.fixed_lo[:, 0])
    fy0 = np.ascontiguousarray(nets.fixed_lo[:, 1])
    fx1 = np.ascontiguousarray(nets.fixed_hi[:, 0])
    fy1 = np.ascontiguousarray(nets.fixed_hi[:, 1])
    bx0_a, bx1_a, by0_a, by1_a, cost_a = _net_costs(nets, xs_a, ys_a)
    initial_cost = sum_left_to_right(cost_a)

    budget = min(max_moves, moves_per_cell * n)
    if budget <= 0:
        return AnnealStats(0, 0, initial_cost, initial_cost)

    t0 = max(0.5, 0.12 * initial_cost / max(1, n_nets))
    t_end = t0 * T_END_FRAC
    alpha = (t_end / t0) ** (1.0 / budget)

    cell_picks, chunks = move_streams(rng, n, budget)

    # the move window shrinks from w_max to w_min as the schedule cools;
    # the core scales each step's offset pair by it
    c0b, r0b, c1b, r1b = problem.bounds()
    w_max = max(8.0, max(c1b - c0b, r1b - r0b))
    w_min = 6.0

    # --- occupancy grid and per-type site geometry for the C core ------
    nrows_dev = problem.device.nrows
    nsites = problem.device.ncols * nrows_dev
    occ = np.full(nsites, -1, dtype=np.int64)
    occ[sites[:, 0].astype(np.int64) * nrows_dev + sites[:, 1].astype(np.int64)] = np.arange(n)

    # per type, in sorted order: the distinct pool columns (range-limited
    # moves snap to them), the pool's row span, its sites and a membership grid
    tmap = {ct: t for t, ct in enumerate(sorted(set(problem.ctypes)))}
    ntypes = len(tmap)
    cell_t = np.fromiter(map(tmap.__getitem__, problem.ctypes), np.int64, n)
    tcols_offs = np.zeros(ntypes + 1, dtype=np.int64)
    trmin = np.zeros(ntypes, dtype=np.int64)
    trmax = np.zeros(ntypes, dtype=np.int64)
    pool_offs = np.zeros(ntypes + 1, dtype=np.int64)
    cols_parts = [None] * ntypes
    pool_parts = [None] * ntypes
    grids = np.zeros((ntypes, nsites), dtype=np.uint8)
    for ct, t in tmap.items():
        pool = np.ascontiguousarray(problem.site_pools[ct], dtype=np.int64)
        cols_parts[t] = np.unique(pool[:, 0])
        trmin[t], trmax[t] = pool[:, 1].min(), pool[:, 1].max()
        pool_parts[t] = pool.reshape(-1)
        grids[t][pool[:, 0] * nrows_dev + pool[:, 1]] = 1
        tcols_offs[t + 1] = tcols_offs[t] + cols_parts[t].shape[0]
        pool_offs[t + 1] = pool_offs[t] + pool.shape[0]
    tcols_flat = np.concatenate(cols_parts)
    pool_flat = np.concatenate(pool_parts)
    grids = grids.reshape(-1)

    checkpoint_every = max(1, budget // 32)
    n_ck_cap = budget // checkpoint_every + 2
    best_xs = np.empty(n, dtype=np.float64)
    best_ys = np.empty(n, dtype=np.float64)
    # workspaces sized for a swap: the union of two cells' net lists
    width = 2 * int(deg.max()) + 8
    affected = np.empty(width, dtype=np.int64)
    ck_steps = np.zeros(n_ck_cap, dtype=np.int64)
    ck_cost = np.zeros(n_ck_cap, dtype=np.float64)
    ck_temp = np.zeros(n_ck_cap, dtype=np.float64)
    # the sweep's loop state, carried from chunk to chunk:
    # [accepted, bbox_fast, bbox_rescan, checkpoints, next checkpoint step]
    # and [running cost, best cost, temperature]
    out_i = np.zeros(5, dtype=np.int64)
    out_d = np.array([initial_cost, initial_cost, t0], dtype=np.float64)

    fixed_args = (
        n, budget, nrows_dev, nsites,
        alpha, checkpoint_every,
        _ptr(xs_a), _ptr(ys_a),
        _ptr(net_offs), _ptr(net_pins),
        _ptr(fx0), _ptr(fx1), _ptr(fy0), _ptr(fy1),
        _ptr(net_w), _ptr(net_two), _ptr(net_psum),
        _ptr(bx0_a), _ptr(bx1_a), _ptr(by0_a), _ptr(by1_a), _ptr(cost_a),
        _ptr(cell_net_offs), _ptr(cell_nets),
        _ptr(occ), _ptr(cell_t),
        _ptr(tcols_offs), _ptr(tcols_flat),
        _ptr(trmin), _ptr(trmax),
        _ptr(grids), _ptr(pool_offs), _ptr(pool_flat),
        _ptr(cell_picks),
        w_min, float(w_max),
        _ptr(best_xs), _ptr(best_ys),
        _ptr(affected),
        _ptr(ck_steps), _ptr(ck_cost), _ptr(ck_temp),
        _ptr(out_i), _ptr(out_d),
    )
    for begin, uniforms, pool_picks, offset_picks, hop_picks in chunks:
        sweep(
            *fixed_args, begin, begin + uniforms.shape[0],
            _ptr(uniforms), _ptr(pool_picks), _ptr(hop_picks), _ptr(offset_picks),
        )

    accepted = int(out_i[0])
    running = float(out_d[0])
    best_cost = float(out_d[1])
    for q in range(int(out_i[3])):
        sample("place.cost", float(ck_cost[q]), step=int(ck_steps[q]))
        sample("place.temperature", float(ck_temp[q]), step=int(ck_steps[q]))

    if running > best_cost:
        xs_a, ys_a = best_xs, best_ys
        final_cost = best_cost
        # the cost cache tracked the *final* walk, not the restored best
        # state — recompute before the clump pass reads it
        cost_a = _net_costs(nets, xs_a, ys_a)[4]
    else:
        final_cost = running

    # Directed post-pass, in the core over the same arrays (it rebuilds
    # the occupancy grid from the positions it is handed).
    sums = np.empty(width, dtype=np.float64)
    order_a = np.empty(n_nets, dtype=np.int64)
    order_b = np.empty(n_nets, dtype=np.int64)
    median = np.empty(int(pin_counts.max()), dtype=np.float64)
    final = np.array([final_cost], dtype=np.float64)
    clump(
        n, n_nets, nrows_dev, nsites, annealer.CLUMP_PASSES,
        _ptr(xs_a), _ptr(ys_a),
        _ptr(net_offs), _ptr(net_pins),
        _ptr(fx0), _ptr(fx1), _ptr(fy0), _ptr(fy1),
        _ptr(net_w), _ptr(cost_a),
        _ptr(cell_net_offs), _ptr(cell_nets),
        _ptr(occ), _ptr(cell_t),
        _ptr(tcols_offs), _ptr(tcols_flat),
        _ptr(trmin), _ptr(trmax),
        _ptr(grids),
        _ptr(affected), _ptr(sums),
        _ptr(order_a), _ptr(order_b),
        _ptr(median),
        _ptr(final),
    )
    final_cost = float(final[0])

    sites[:, 0] = xs_a
    sites[:, 1] = ys_a
    incr("place.bbox.fast", int(out_i[1]))
    incr("place.bbox.rescan", int(out_i[2]))
    sample("place.cost", min(final_cost, initial_cost))
    return AnnealStats(budget, accepted, initial_cost, min(final_cost, initial_cost))
