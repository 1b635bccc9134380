"""Placement cost functions: HPWL and congestion estimation.

``total_hpwl`` is the classic half-perimeter wirelength, computed over
all nets at once (:meth:`NetColumns.hpwl`); ``net_hpwl`` is the one-net
scalar form it is tested against.  The congestion
estimator bins placed pins into coarse tiles and reports overflow against
a per-bin capacity — the same quantity the paper's Eq. 2-3 component
placement uses (overlaps per tile normalised by area).
"""

from __future__ import annotations

import numpy as np

from .problem import NetColumns, NetPins

__all__ = ["net_hpwl", "total_hpwl", "congestion_map", "congestion_overflow"]


def net_hpwl(pos: np.ndarray, net: NetPins) -> float:
    """Half-perimeter wirelength of one net given movable positions."""
    xs = pos[net.movable, 0]
    ys = pos[net.movable, 1]
    if net.fixed.size:
        xs = np.concatenate([xs, net.fixed[:, 0]])
        ys = np.concatenate([ys, net.fixed[:, 1]])
    return float((xs.max() - xs.min()) + (ys.max() - ys.min())) * net.weight


def total_hpwl(pos: np.ndarray, nets: list[NetPins]) -> float:
    """Total weighted HPWL over all nets: ``sum(net_hpwl(pos, net))``, bit
    for bit.  A problem's own nets are already columns:
    ``problem.columns.hpwl(pos)``."""
    return NetColumns.from_nets(nets).hpwl(pos)


#: Side of a congestion bin, in tiles.
BIN_SIZE = 6


def congestion_map(
    pos: np.ndarray,
    bounds: tuple[float, float, float, float],
) -> np.ndarray:
    """Pin-density histogram over :data:`BIN_SIZE`-tile square bins."""
    c0, r0, c1, r1 = bounds
    nx = max(1, int(c1 - c0) // BIN_SIZE + 1)
    ny = max(1, int(r1 - r0) // BIN_SIZE + 1)
    bx = np.clip(((pos[:, 0] - c0) // BIN_SIZE).astype(int), 0, nx - 1)
    by = np.clip(((pos[:, 1] - r0) // BIN_SIZE).astype(int), 0, ny - 1)
    grid = np.zeros((nx, ny), dtype=np.int64)
    np.add.at(grid, (bx, by), 1)
    return grid


def congestion_overflow(
    pos: np.ndarray,
    bounds: tuple[float, float, float, float],
) -> float:
    """Total cell-count overflow above the per-bin capacity, which
    assumes cells could spread uniformly with 35 % headroom."""
    grid = congestion_map(pos, bounds)
    capacity_per_bin = 1.35 * pos.shape[0] / grid.size
    overflow = np.maximum(grid - capacity_per_bin, 0.0)
    return float(overflow.sum())
