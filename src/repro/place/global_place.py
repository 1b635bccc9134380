"""Force-directed global placement.

Star-model iterations over the net-cell incidence: every net pulls its
pins toward the net center (including fixed pins of locked cells), while
periodic quantile spreading keeps density bounded.  This is the analytic
"global" stage real tools run before legalization and detailed
refinement; it is fully vectorized (``np.bincount`` over sorted pin
columns) so designs with tens of thousands of cells place in seconds.
"""

from __future__ import annotations

import numpy as np

from .problem import NetColumns, PlacementProblem

__all__ = ["global_place"]

#: Share of the way each cell moves toward its nets' centre per iteration.
PULL = 0.7
#: Quantile spreading runs every this many iterations ...
SPREAD_EVERY = 5
#: ... and blends this share of the spread positions in.
SPREAD_BLEND = 0.25


def _pin_columns(cols: NetColumns):
    """Movable pins of every net as ``(net, cell)``-sorted columns.

    Returns ``net, cell, weight, mult``: one row per distinct (net, cell)
    pair in ascending order, the net weight summed over the pair's
    occurrences, and the occurrence count — ``None`` when no net lists a
    cell twice (the usual case), so the caller skips that multiply.

    ``np.bincount`` accumulates strictly in input order, so over these
    rows it adds each net's pins by ascending cell and each cell's nets
    by ascending net: the order a canonical CSR product takes.  Positions
    therefore come out bit-identical to the ``scipy.sparse`` formulation
    this replaced, which the test suite keeps as the oracle.
    """
    counts = cols.count
    cell = cols.pins
    net = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    weight = np.repeat(cols.weight, counts)
    order = np.lexsort((cell, net))
    net, cell, weight = net[order], cell[order], weight[order]
    first = np.ones(cell.shape[0], dtype=bool)
    first[1:] = (net[1:] != net[:-1]) | (cell[1:] != cell[:-1])
    if first.all():
        return net, cell, weight, None
    group = np.cumsum(first) - 1
    return (
        net[first],
        cell[first],
        np.bincount(group, weights=weight),
        np.bincount(group).astype(np.float64),
    )


def _spread(pos: np.ndarray, bounds: tuple[float, float, float, float]) -> np.ndarray:
    """Quantile-spread each coordinate to uniform density over the region."""
    c0, r0, c1, r1 = bounds
    out = pos.copy()
    n = pos.shape[0]
    if n < 2:
        return out
    for axis, (lo, hi) in enumerate(((c0, c1), (r0, r1))):
        order = np.argsort(pos[:, axis], kind="stable")
        targets = np.linspace(lo, hi, n)
        out[order, axis] = targets
    return out


def global_place(
    problem: PlacementProblem,
    rng: np.random.Generator,
    iters: int = 30,
) -> np.ndarray:
    """Return float positions (n, 2) for the movable cells."""
    n = problem.n_movable
    bounds = problem.bounds()
    pos = problem.initial_positions(rng)
    if n == 0 or not problem.nets:
        return pos

    cols = problem.columns
    n_nets = len(problem.nets)
    net, cell, weight, mult = _pin_columns(cols)
    fixed_sum = cols.fixed_sum
    pin_count = (cols.count + cols.n_fixed).astype(np.float64)
    cell_weight = np.bincount(cell, weights=weight, minlength=n)
    cell_weight[cell_weight == 0] = 1.0
    # cells on no nets keep their position
    lonely = np.bincount(cell, minlength=n) == 0
    centers = np.empty((n_nets, 2), dtype=np.float64)
    target = np.empty((n, 2), dtype=np.float64)

    for it in range(iters):
        for axis in (0, 1):
            at = pos[:, axis][cell]
            if mult is not None:
                at *= mult
            centers[:, axis] = np.bincount(net, weights=at, minlength=n_nets)
        centers += fixed_sum
        centers /= pin_count[:, None]
        for axis in (0, 1):
            target[:, axis] = np.bincount(
                cell, weights=centers[:, axis][net] * weight, minlength=n
            )
        target /= cell_weight[:, None]
        target[lonely] = pos[lonely]
        pos = PULL * target + (1.0 - PULL) * pos
        if (it + 1) % SPREAD_EVERY == 0 and it + 1 < iters:
            pos = (1.0 - SPREAD_BLEND) * pos + SPREAD_BLEND * _spread(pos, bounds)

    c0, r0, c1, r1 = bounds
    pos[:, 0] = np.clip(pos[:, 0], c0, c1)
    pos[:, 1] = np.clip(pos[:, 1], r0, r1)
    return pos
