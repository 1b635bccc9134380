"""The columnar placer stages against the per-object forms they replaced.

Each rewritten stage of ``place_design`` reads one net CSR
(:class:`repro.place.problem.NetColumns`) and plain arrays instead of
walking net and site objects.  The per-object form of each — as it was
written before — is kept *here* as the oracle, the way
``test_property_place.py`` keeps the ``scipy.sparse`` global placer, and
the vectorised stage must equal it bit for bit:

* ``legalize`` ≡ a ``take_nearest`` walk over per-column pools;
* ``total_hpwl`` ≡ ``sum(net_hpwl)``, as exact floats;
* ``initial_positions`` ≡ the per-cell loop on the same seed;
* the columns themselves ≡ ``problem.nets``, with the degenerate nets
  (no movable pin, no pin at all) either exact or a ``ValueError``.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util import make_rng
from repro.fabric import Device
from repro.netlist import Design, DesignError
from repro.place import NetColumns, legalize, net_hpwl, total_hpwl
from repro.place.annealer import _net_cost
from repro.place.global_place import global_place
from repro.place.native import anneal_native, native_available
from repro.place.problem import NetPins, PlacementProblem, _module_centers

SMALL = Device.from_name("small")


def _problem(n, *, ctypes=None, modules=None, nets=(), site_pools=None, region=None):
    return PlacementProblem(
        design=Design("hand"), device=SMALL, region=region,
        names=[f"c{i}" for i in range(n)],
        ctypes=list(ctypes) if ctypes is not None else ["SLICE"] * n,
        modules=list(modules) if modules is not None else [None] * n,
        nets=list(nets), site_pools=dict(site_pools or {}),
    )


# -- legalize ------------------------------------------------------------------


class _ColumnPool:
    """Free sites of one resource type, organised per column (the oracle)."""

    def __init__(self, sites, ctype="?"):
        self.ctype = ctype
        self.n_sites = len(sites)
        self.rows: dict[int, list[int]] = {}
        for col, row in sites:
            self.rows.setdefault(int(col), []).append(int(row))
        for rows in self.rows.values():
            rows.sort()
        self.cols = sorted(self.rows)

    def take_nearest(self, x, y):
        if not self.cols:
            raise DesignError(
                f"column pool exhausted: all {self.n_sites} {self.ctype} sites "
                "taken during legalization (pblock too small for the design)"
            )
        idx = bisect_left(self.cols, x)
        best_col = None
        for probe in ([idx] if idx < len(self.cols) else []) + ([idx - 1] if idx > 0 else []):
            col = self.cols[probe]
            if best_col is None or abs(col - x) < abs(best_col - x):
                best_col = col
        rows = self.rows[best_col]
        ridx = min(bisect_left(rows, y), len(rows) - 1)
        cand = [ridx] + ([ridx - 1] if ridx > 0 else [])
        row = rows.pop(min(cand, key=lambda i: abs(rows[i] - y)))
        if not rows:
            del self.rows[best_col]
            self.cols.remove(best_col)
        return best_col, row


def _legalize_walk(problem, pos):
    sites = np.empty((problem.n_movable, 2), dtype=np.int64)
    ctypes = np.asarray(problem.ctypes)
    for ctype in dict.fromkeys(problem.ctypes):
        members = np.flatnonzero(ctypes == ctype)
        pool = _ColumnPool(problem.site_pools[ctype], ctype=ctype)
        for i in members[np.argsort(pos[members, 0], kind="stable")]:
            sites[i] = pool.take_nearest(pos[i, 0], pos[i, 1])
    return sites


@st.composite
def legalize_cases(draw):
    """Tight hand-built pools (few columns, few rows, listed in any order)
    and positions on a half-tile grid, so that cells sit exactly between
    two columns or two rows, columns run out and neighbours compete."""
    ctypes = draw(st.lists(st.sampled_from(["SLICE", "DSP48E2", "RAMB36"]),
                           min_size=1, max_size=24))
    pools = {}
    for ctype in dict.fromkeys(ctypes):
        need = ctypes.count(ctype)
        cols = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True))
        per_col = -(-need // len(cols)) + draw(st.integers(0, 2))
        sites = [
            (col, row)
            for col in cols
            for row in draw(st.lists(st.integers(0, 40), min_size=per_col,
                                     max_size=per_col, unique=True))
        ]
        pools[ctype] = np.asarray(draw(st.permutations(sites)), dtype=np.int64)
    half_col = st.integers(-2, 26).map(lambda k: k / 2.0)
    half_row = st.integers(-2, 84).map(lambda k: k / 2.0)
    pos = np.asarray(
        draw(st.lists(st.tuples(half_col, half_row), min_size=len(ctypes), max_size=len(ctypes))),
        dtype=np.float64,
    )
    return _problem(len(ctypes), ctypes=ctypes, site_pools=pools), pos


@settings(max_examples=200, deadline=None)
@given(legalize_cases())
def test_legalize_matches_take_nearest_walk(case):
    problem, pos = case
    got = legalize(problem, pos)
    assert got.dtype == np.int64
    assert np.array_equal(got, _legalize_walk(problem, pos))


def test_legalize_tie_goes_to_the_right_column_and_the_upper_row():
    pool = np.array([(2, 1), (2, 3), (4, 1), (4, 3)])
    problem = _problem(1, site_pools={"SLICE": pool})
    assert legalize(problem, np.array([[3.0, 2.0]])).tolist() == [[4, 3]]
    # strictly nearer on the left / below wins
    assert legalize(problem, np.array([[2.9, 1.9]])).tolist() == [[2, 1]]
    # past the last column and the last row: the only bracket there is
    assert legalize(problem, np.array([[9.0, 9.0]])).tolist() == [[4, 3]]
    assert legalize(problem, np.array([[-5.0, -5.0]])).tolist() == [[2, 1]]


def test_legalize_pool_exhausted_is_a_design_error():
    pool = np.array([(2, 1), (4, 1)])
    problem = _problem(3, site_pools={"SLICE": pool})
    pos = np.array([[2.0, 1.0], [3.0, 1.0], [4.0, 1.0]])
    with pytest.raises(DesignError, match="all 2 SLICE sites taken") as new:
        legalize(problem, pos)
    with pytest.raises(DesignError) as old:
        _legalize_walk(problem, pos)
    assert str(new.value) == str(old.value)


# -- HPWL ----------------------------------------------------------------------


@st.composite
def net_lists(draw):
    """Nets over ``n`` cells: one-pin nets, cells listed twice, fixed pins
    (off-grid too), weights, nets with fixed pins only."""
    n = draw(st.integers(1, 10))
    coord = st.floats(-4.0, 40.0, allow_nan=False, width=32)
    nets = []
    for _ in range(draw(st.integers(0, 9))):
        movable = draw(st.lists(st.integers(0, n - 1), max_size=6))
        fixed = draw(st.lists(st.tuples(coord, coord),
                              min_size=0 if movable else 1, max_size=3))
        nets.append(NetPins(
            movable=np.asarray(movable, dtype=np.int64),
            fixed=np.asarray(fixed, dtype=np.float64).reshape(-1, 2),
            weight=float(draw(st.integers(1, 33))) ** 0.5,
        ))
    pos = np.asarray(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)),
                     dtype=np.float64)
    return n, nets, pos


@settings(max_examples=150, deadline=None)
@given(net_lists())
def test_total_hpwl_is_the_sum_of_net_hpwl_exactly(case):
    _n, nets, pos = case
    want = float(sum(net_hpwl(pos, net) for net in nets))
    assert total_hpwl(pos, nets) == want


def test_total_hpwl_of_no_nets_is_zero():
    assert total_hpwl(np.zeros((3, 2)), []) == 0.0


# -- the columns -----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(net_lists())
def test_columns_are_the_nets(case):
    _n, nets, pos = case
    cols = NetColumns.from_nets(nets)
    assert cols.offs[0] == 0 and cols.offs.shape == (len(nets) + 1,)
    x0, x1, y0, y1 = cols.boxes(pos[:, 0], pos[:, 1])
    for k, net in enumerate(nets):
        assert cols.pins[cols.offs[k]:cols.offs[k + 1]].tolist() == net.movable.tolist()
        assert cols.count[k] == len(net.movable)
        assert cols.weight[k] == net.weight
        assert cols.n_fixed[k] == net.fixed.shape[0]
        if net.fixed.shape[0]:
            assert cols.fixed_lo[k].tolist() == net.fixed.min(axis=0).tolist()
            assert cols.fixed_hi[k].tolist() == net.fixed.max(axis=0).tolist()
            assert cols.fixed_sum[k].tolist() == net.fixed.sum(axis=0).tolist()
        else:
            assert cols.fixed_lo[k].tolist() == [np.inf, np.inf]
            assert cols.fixed_hi[k].tolist() == [-np.inf, -np.inf]
            assert cols.fixed_sum[k].tolist() == [0.0, 0.0]
        xs = np.concatenate([pos[net.movable, 0], net.fixed[:, 0]])
        ys = np.concatenate([pos[net.movable, 1], net.fixed[:, 1]])
        assert (x0[k], x1[k], y0[k], y1[k]) == (xs.min(), xs.max(), ys.min(), ys.max())
    # a subset keeps order and contents
    keep = np.arange(len(nets)) % 2 == 0
    assert _same_columns(cols.select(keep), NetColumns.from_nets(nets[::2]))


def _same_columns(a: NetColumns, b: NetColumns) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("offs", "pins", "weight", "n_fixed", "fixed_lo", "fixed_hi", "fixed_sum")
    )


def test_net_without_movable_pin_keeps_its_fixed_box():
    """An empty CSR segment must not read the next net's first pin (what a
    bare ``reduceat`` returns): the box is the fixed pins', as ``net_hpwl``
    and the annealer's scalar ``_net_cost`` have it."""
    fixed_only = NetPins(np.empty(0, dtype=np.int64), np.array([[2.0, 3.0], [7.0, 9.0]]), 2.0)
    plain = NetPins(np.array([0, 1]), np.zeros((0, 2)), 1.0)
    pos = np.array([[30.0, 30.0], [31.0, 35.0]])
    for nets in ([fixed_only, plain], [plain, fixed_only], [fixed_only]):
        cols = NetColumns.from_nets(nets)
        k = next(i for i, net in enumerate(nets) if net is fixed_only)
        assert [v[k] for v in cols.boxes(pos[:, 0], pos[:, 1])] == [2.0, 7.0, 3.0, 9.0]
        assert total_hpwl(pos, nets) == sum(net_hpwl(pos, net) for net in nets)
    assert net_hpwl(pos, fixed_only) == 22.0
    assert _net_cost([], fixed_only.fixed.tolist(), [], [], 1.0) == 11.0 + 11.0 * 11.0 / 120.0


def test_net_without_any_pin_is_rejected():
    nothing = NetPins(np.empty(0, dtype=np.int64), np.zeros((0, 2)), 1.0)
    plain = NetPins(np.array([0]), np.array([[1.0, 1.0]]), 1.0)
    with pytest.raises(ValueError, match="net 1 has neither"):
        NetColumns.from_nets([plain, nothing])
    with pytest.raises(ValueError):  # the scalar form: numpy's empty-reduction error
        net_hpwl(np.zeros((1, 2)), nothing)
    with pytest.raises(ValueError):
        total_hpwl(np.zeros((1, 2)), [plain, nothing])


def test_annealer_rejects_a_net_without_movable_pin():
    """The core's post-pass takes a net's median over its movable pins
    (the reference raises ``IndexError`` when such a net ranks among the
    worst), so the driver refuses the net up front."""
    if not native_available():
        pytest.skip("native annealer core unavailable")
    pool = SMALL.sites_of("SLICE")
    nets = [
        NetPins(np.array([0, 1]), np.zeros((0, 2)), 1.0),
        NetPins(np.empty(0, dtype=np.int64), np.array([[2.0, 3.0], [7.0, 9.0]]), 1.0),
    ]
    problem = _problem(2, nets=nets, site_pools={"SLICE": pool})
    with pytest.raises(ValueError, match="net 1 .* no movable pin"):
        anneal_native(problem, pool[:2].copy(), seed=0, moves_per_cell=40, max_moves=400_000)


# -- initial positions -------------------------------------------------------------


def _initial_positions_loop(problem, rng):
    """``initial_positions`` as the per-cell loop it was — the oracle."""
    c0, r0, c1, r1 = problem.bounds()
    n = problem.n_movable
    pos = np.empty((n, 2), dtype=np.float64)
    unique_modules = [m for m in dict.fromkeys(problem.modules) if m is not None]
    if len(unique_modules) > 1:
        counts = {m: 0 for m in unique_modules}
        for m in problem.modules:
            if m is not None:
                counts[m] += 1
        centers = _module_centers(unique_modules, counts, (c0, r0, c1, r1))
        span = max(c1 - c0, r1 - r0)
        jitter = rng.normal(0.0, max(1.0, span * 0.03), size=(n, 2))
        for i, m in enumerate(problem.modules):
            if m is None:
                pos[i, 0] = rng.uniform(c0, c1)
                pos[i, 1] = rng.uniform(r0, r1)
            else:
                pos[i] = centers[m] + jitter[i]
        pos[:, 0] = np.clip(pos[:, 0], c0, c1)
        pos[:, 1] = np.clip(pos[:, 1], r0, r1)
    else:
        pos[:, 0] = rng.uniform(c0, c1, size=n)
        pos[:, 1] = rng.uniform(r0, r1, size=n)
    return pos


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([None, None, "a", "b", "c"]), min_size=0, max_size=30),
    st.integers(0, 10_000),
    st.booleans(),
)
def test_initial_positions_match_the_per_cell_loop(modules, seed, bounded):
    from repro.fabric import PBlock

    region = PBlock(3, 2, 17, 40) if bounded else None
    problem = _problem(len(modules), modules=modules, region=region)
    rng, rng_loop = make_rng(seed), make_rng(seed)
    got = problem.initial_positions(rng)
    assert np.array_equal(got, _initial_positions_loop(problem, rng_loop))
    # and the generator is left where the loop leaves it
    assert rng.random() == rng_loop.random()


def test_global_place_accepts_fixed_only_nets():
    nets = [
        NetPins(np.array([0, 1]), np.zeros((0, 2)), 1.0),
        NetPins(np.empty(0, dtype=np.int64), np.array([[2.0, 3.0]]), 1.0),
    ]
    problem = _problem(2, nets=nets)
    assert np.isfinite(global_place(problem, make_rng(0), iters=4)).all()
