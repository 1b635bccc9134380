"""Structure-of-arrays views and vectorized kernels for PathFinder.

The router's per-target bookkeeping — building the congestion-oblivious
first-iteration routes, charging occupancy, scanning for overused paths,
and summing final wirelength — is all element-wise work over small
integers.  This module holds the flat-array equivalents of those loops:
each kernel is bit-identical to the scalar code it replaces (the sums
involved are integer-valued floats below 2**53, so every addition is
exact and order-independent), which the route property suites assert.

The kernels operate on plain ndarrays so both the classic router
(:class:`repro.route.pathfinder.Router`) and the region-sharded schedule
(:mod:`repro.route.shard`) share them.
"""

from __future__ import annotations

import numpy as np

from ..fabric.interconnect import HEX_COST, HEX_REACH

__all__ = [
    "direct_paths_batch",
    "flatten_paths",
    "overused_flags",
    "batch_usage",
    "wirelength_batch",
    "refresh_cost_nodes",
]

#: Reference implementation these kernels are asserted bit-identical to
#: (the oracle contract; checked by ORC lint rules).
ORACLE = "repro.route.pathfinder.Router"

_EMPTY = np.empty(0, dtype=np.int64)


def direct_paths_batch(
    src: np.ndarray, dst: np.ndarray, nrows: int
) -> tuple[np.ndarray, np.ndarray]:
    """All :func:`repro.route.maze.direct_path` routes in one pass.

    Returns ``(flat, offs)`` — the concatenated node paths and their
    CSR offsets (path ``i`` is ``flat[offs[i]:offs[i+1]]``).  Nodes are
    produced in exactly the scalar order: hex column hops, single column
    hops, hex row hops, single row hops, each path starting at its
    source node.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n = src.shape[0]
    if n == 0:
        return _EMPTY, np.zeros(1, dtype=np.int64)
    dcol = dst // nrows - src // nrows
    drow = dst % nrows - src % nrows
    # Four ordered segments per path; a zero count drops its segment.
    counts = np.empty((n, 4), dtype=np.int64)
    strides = np.empty((n, 4), dtype=np.int64)
    counts[:, 0] = np.abs(dcol) // HEX_REACH
    counts[:, 1] = np.abs(dcol) % HEX_REACH
    counts[:, 2] = np.abs(drow) // HEX_REACH
    counts[:, 3] = np.abs(drow) % HEX_REACH
    col_sign = np.where(dcol > 0, 1, -1)
    row_sign = np.where(drow > 0, 1, -1)
    strides[:, 0] = col_sign * (HEX_REACH * nrows)
    strides[:, 1] = col_sign * nrows
    strides[:, 2] = row_sign * HEX_REACH
    strides[:, 3] = row_sign
    lens = counts.sum(axis=1) + 1
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    total = int(offs[-1])
    # Segmented cumulative sum: head slots carry zero, every other slot
    # its hop stride; anchoring each segment at its source reproduces
    # the node sequence without a per-path loop.
    steps = np.zeros(total, dtype=np.int64)
    body = np.ones(total, dtype=bool)
    heads = offs[:-1]
    body[heads] = False
    steps[body] = np.repeat(strides.ravel(), counts.ravel())
    prefix = np.cumsum(steps)
    flat = prefix + np.repeat(src - prefix[heads], lens)
    return flat, offs


def flatten_paths(paths: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate node paths into ``(flat, offs)`` CSR arrays."""
    n = len(paths)
    lens = np.fromiter((len(p) for p in paths), dtype=np.int64, count=n)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    total = int(offs[-1])
    flat = np.fromiter(
        (node for p in paths for node in p), dtype=np.int64, count=total
    )
    return flat, offs


def overused_flags(
    flat: np.ndarray, offs: np.ndarray,
    occupancy: np.ndarray, capacity: np.ndarray,
) -> np.ndarray:
    """Per-segment ``any(occupancy > capacity)`` over a CSR of nodes.

    Equivalent to calling :func:`~repro.route.pathfinder._path_overused`
    on each segment; empty segments are False.
    """
    n = offs.shape[0] - 1
    flags = np.zeros(n, dtype=bool)
    if flat.size == 0:
        return flags
    over = occupancy[flat] > capacity[flat]
    nonempty = offs[:-1] < offs[1:]
    starts = offs[:-1][nonempty]
    if starts.size:
        flags[nonempty] = np.bitwise_or.reduceat(over, starts)
    return flags


def batch_usage(
    inner_flat: np.ndarray, inner_offs: np.ndarray, net_ids: np.ndarray,
    n_nodes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared-trunk usage counts for a batch of fresh paths.

    *inner_flat*/*inner_offs* hold each target's interior nodes and
    *net_ids* the target->net assignment.  Returns
    ``(u_net, u_node, u_count)``: every distinct (net, node) pair and
    how many of that net's targets cross the node — exactly the counts
    the serial commit loop leaves in the per-net usage dicts when the
    nets start with no committed routes.
    """
    if inner_flat.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    per_target = np.diff(inner_offs)
    owner = np.repeat(net_ids, per_target)
    keys = owner * n_nodes + inner_flat
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq // n_nodes, uniq % n_nodes, counts


def wirelength_batch(flat: np.ndarray, offs: np.ndarray, nrows: int) -> int:
    """Total tiles spanned (:meth:`RoutingGraph.path_metrics`) over a CSR of paths."""
    if flat.size < 2:
        return 0
    cols = flat // nrows
    rows = flat % nrows
    dc = np.abs(np.diff(cols))
    dr = np.abs(np.diff(rows))
    valid = np.ones(flat.size - 1, dtype=bool)
    # mask the junctions between consecutive paths (and empty paths)
    ends = offs[1:-1]
    valid[ends[(ends > 0) & (ends < flat.size)] - 1] = False
    return int(((dc + dr) * valid).sum())


def refresh_cost_nodes(
    nodes: np.ndarray,
    occupancy: np.ndarray, capacity: np.ndarray, history: np.ndarray,
    cost_list: list[float], hex_list: list[float],
    pres_fac: float, hist_fac: float,
) -> None:
    """Recompute congestion costs for *nodes* and write them into the
    iteration's flat cost/hex lists.

    Same element-wise formula (hence the same IEEE doubles) as the
    iteration-start materialization and the full-path refresh in
    :meth:`Router._refresh_cost`; callers pass only the nodes whose
    occupancy actually changed, because a node with unchanged inputs
    recomputes to the value it already holds.
    """
    if nodes.size == 0:
        return
    over = np.maximum(occupancy[nodes] - capacity[nodes], 0.0) / capacity[nodes]
    vals = (1.0 + pres_fac * over + hist_fac * history[nodes]).tolist()
    for node, val in zip(nodes.tolist(), vals):
        cost_list[node] = val
        hex_list[node] = HEX_COST * val
