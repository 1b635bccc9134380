"""Legalization: snap float positions onto legal, unoccupied sites.

Tetris-style column assignment: cells are processed in x order; each
takes the nearest column (of its resource type) with free capacity, then
the nearest free row within that column.  This respects the columnar
fabric — a DSP cell can only land in a DSP column — and preserves the
global placement's locality.

The sweep is sequential by nature (every cell sees the sites its
predecessors took), so it stays a Python loop — over plain lists: the
free pool of a type is its sorted columns plus one ascending row list
per column, cut out of a single ``np.lexsort`` of the site array.  Both
nearest searches are a ``bisect`` and one comparison; on a tie the
candidate at the insertion point (the column at or right of ``x``, the
row at or above ``y``) wins.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..netlist.design import DesignError
from .problem import PlacementProblem

__all__ = ["legalize"]


def _column_pool(sites: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """The distinct columns of *sites*, ascending, and each one's rows,
    ascending — as python lists, what the sweep bisects and pops."""
    sites = np.asarray(sites, dtype=np.int64).reshape(-1, 2)
    if not sites.shape[0]:
        return [], []
    order = np.lexsort((sites[:, 1], sites[:, 0]))
    col = sites[order, 0]
    heads = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
    cuts = [*heads.tolist(), col.shape[0]]
    rows = sites[order, 1].tolist()
    return col[heads].tolist(), [rows[a:b] for a, b in zip(cuts, cuts[1:])]


def legalize(problem: PlacementProblem, pos: np.ndarray) -> np.ndarray:
    """Assign every movable cell a distinct legal site near its position.

    Returns integer sites of shape ``(n_movable, 2)``.
    """
    n = problem.n_movable
    sites = np.empty((n, 2), dtype=np.int64)
    ctypes = np.asarray(problem.ctypes)
    for ctype in dict.fromkeys(problem.ctypes):
        members = np.flatnonzero(ctypes == ctype)
        cols, rows_of = _column_pool(problem.site_pools[ctype])
        # x-sorted sweep keeps horizontal order, limiting displacement
        order = members[np.argsort(pos[members, 0], kind="stable")]
        took_col: list[int] = []
        took_row: list[int] = []
        for x, y in pos[order].tolist():
            if not cols:
                raise DesignError(
                    f"column pool exhausted: all {len(problem.site_pools[ctype])} {ctype} "
                    "sites taken during legalization (pblock too small for the design)"
                )
            # the two columns bracketing x; the left one only when strictly nearer
            c = bisect_left(cols, x)
            if c == len(cols) or (c > 0 and abs(cols[c - 1] - x) < abs(cols[c] - x)):
                c -= 1
            # the two free rows around y, same rule
            rows = rows_of[c]
            r = min(bisect_left(rows, y), len(rows) - 1)
            if r > 0 and abs(rows[r - 1] - y) < abs(rows[r] - y):
                r -= 1
            took_col.append(cols[c])
            took_row.append(rows.pop(r))
            if not rows:
                del cols[c], rows_of[c]
        sites[order, 0] = took_col
        sites[order, 1] = took_row
    return sites
