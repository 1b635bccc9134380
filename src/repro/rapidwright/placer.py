"""Timing- and congestion-driven component placement (paper Sec. IV-B4).

Chooses a relocation anchor for every component instance.  Following the
paper's Eq. 1-3:

* the **timing cost** of a candidate is the half-perimeter wirelength of
  the inter-component connections it closes (Eq. 1), measured between
  partition-pin tiles;
* the **congestion cost** counts component overlaps per tile (Eq. 2-3) —
  pblocks must be strictly disjoint, and a *halo* around each pblock
  penalises crowding that would starve the inter-component router;
* the search takes each component's cheapest candidate whose sites are
  free; when none is left it backtracks, unplacing earlier components and
  trying their next-best anchors (bounded attempts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..fabric.device import Device
from ..fabric.pblock import PBlock
from ..netlist.design import DesignError
from ..obs.span import incr, span
from .module import Footprint

__all__ = ["ComponentPlacer", "ComponentPlacement", "PlacementInfeasible"]


#: The per-candidate cost every array ranking of :meth:`ComponentPlacer.
#: _rank` is asserted equal to, float for float and tie for tie (oracle
#: contract, lint rules ORC-001..003; ``tests/test_property_component_
#: placer.py``) — so the search takes a picked candidate's cost from the
#: ranking and re-checks only its sites.
ORACLE = "repro.rapidwright.placer.ComponentPlacer._cost"

#: Tiles a pblock's congestion halo reaches past its edge.
HALO = 4
#: Weights of the timing (Eq. 1) and congestion (Eq. 2-3) terms of a
#: candidate's total cost.
TIMING_WEIGHT = 1.0
CONGESTION_WEIGHT = 120.0
#: Candidates kept per item, cheapest first.
MAX_CANDIDATES = 96
#: Candidate picks a search may try before it gives up.
MAX_ATTEMPTS = 24000
#: Row stride of an item's anchors (``None``: half its pblock height).
ROW_STEP = None
#: (placed, candidate) pairs up to which a ranking adds every pair's
#: congestion term; past it, only those whose halos can meet (the work
#: then follows the placed components, not the anchors times them).
DENSE_PAIRS = 4096


class PlacementInfeasible(DesignError):
    """Raised when no disjoint anchor assignment could be found."""


@dataclass
class ComponentPlacement:
    """Chosen anchors and cost bookkeeping."""

    anchors: dict[str, tuple[int, int]] = field(default_factory=dict)
    pblocks: dict[str, PBlock] = field(default_factory=dict)
    timing_cost: float = 0.0
    congestion_cost: float = 0.0
    attempts: int = 0
    backtracks: int = 0


def _halo(p: PBlock, h: int, device: Device) -> tuple[int, int, int, int]:
    """``(col0, row0, col1, row1)`` of *p* grown by *h* tiles, clipped to
    the device (corners, not a :class:`PBlock`: nothing to validate)."""
    return (max(0, p.col0 - h), max(0, p.row0 - h),
            min(device.ncols - 1, p.col1 + h), min(device.nrows - 1, p.row1 + h))


def _overlap_area(a: tuple, b: tuple) -> int:
    """:meth:`PBlock.overlap_area` of two corner tuples."""
    dc = min(a[2], b[2]) - max(a[0], b[0]) + 1
    dr = min(a[3], b[3]) - max(a[1], b[1]) + 1
    return max(dc, 0) * max(dr, 0)


class _Ranked(NamedTuple):
    """An item's candidates, best first, as columns: the weighted
    ``total``, its ``timing`` and ``congestion`` terms, and each one's
    anchor (the corner of its pblock)."""

    total: np.ndarray
    timing: np.ndarray
    congestion: np.ndarray
    col0: np.ndarray
    row0: np.ndarray


class _Boxes(NamedTuple):
    """The corners of many candidate pblocks of one module, as columns:
    what :func:`_port_point` and the overlap arithmetic read of a
    :class:`PBlock`, for every anchor at once."""

    col0: np.ndarray
    row0: np.ndarray
    col1: np.ndarray
    row1: np.ndarray


def _port_point(module: Footprint, direction: str, pblock: "PBlock | _Boxes"):
    """Partition-pin location for the data interface, pblock-relative
    (a pair of numbers for a :class:`PBlock`, of columns for boxes)."""
    tile = module.pin_tiles.get("in_data" if direction == "in" else "out_data")
    if tile is not None:
        base = module.pblock
        return (
            pblock.col0 + (tile[0] - base.col0),
            pblock.row0 + (tile[1] - base.row0),
        )
    col = pblock.col0 if direction == "in" else pblock.col1
    return (col, (pblock.row0 + pblock.row1) / 2.0)


class ComponentPlacer:
    """Greedy best-first anchor assignment with backtracking."""

    def __init__(self, device: Device) -> None:
        self.device = device

    # -- cost model --------------------------------------------------------

    def _cost(
        self,
        idx: int,
        pblock: PBlock,
        items: list[tuple[str, Footprint]],
        connections: list[tuple[int, int]],
        placed: dict[int, PBlock],
        occ=None,
    ) -> tuple[float, float] | None:
        """(timing, congestion) of placing item *idx* at *pblock*;
        ``None`` when the candidate's locked sites collide with a placed
        component.  Pblocks may interleave (columnar devices leave unused
        site types inside a footprint); only *site* collisions are hard."""
        module = items[idx][1]
        if occ is not None and self._blocked(idx, pblock, items, placed, occ):
            return None
        timing = 0.0
        for a, b in connections:
            if a == idx and b in placed:
                src = _port_point(module, "out", pblock)
                dst = _port_point(items[b][1], "in", placed[b])
            elif b == idx and a in placed:
                src = _port_point(items[a][1], "out", placed[a])
                dst = _port_point(module, "in", pblock)
            else:
                continue
            timing += abs(src[0] - dst[0]) + abs(src[1] - dst[1])
        congestion = 0.0
        mine = _halo(pblock, HALO, self.device)
        for other in placed.values():
            overlap = _overlap_area(mine, _halo(other, HALO, self.device))
            congestion += overlap / pblock.area
        return timing, congestion

    def _blocked(self, idx: int, pblock: PBlock, items: list[tuple[str, Footprint]],
                 placed: dict[int, PBlock], occ) -> bool:
        """Whether item *idx*'s locked sites at *pblock* collide with a
        placed component's (only one whose pblock it overlaps can)."""
        return (any(pblock.overlaps(other) for other in placed.values())
                and bool(occ[self._site_ids(items[idx][1], pblock)].any()))

    # -- search ------------------------------------------------------------

    def place(
        self,
        items: list[tuple[str, Footprint]],
        connections: list[tuple[int, int]],
    ) -> ComponentPlacement:
        """Assign anchors to *items* (BFS order) with *connections* between
        them (index pairs).  An item is a module's name and its
        :class:`~repro.rapidwright.module.Footprint` — the search reads
        nothing else (``Footprint.of(design)`` for a live design).
        Raises :class:`PlacementInfeasible` when the bounded backtracking
        search fails."""
        with span("place.components", components=len(items)) as place_span:
            result = self._place(items, connections)
            place_span.set(attempts=result.attempts, backtracks=result.backtracks)
        incr("place.component_attempts", result.attempts)
        incr("place.component_backtracks", result.backtracks)
        return result

    def _place(
        self,
        items: list[tuple[str, Footprint]],
        connections: list[tuple[int, int]],
    ) -> ComponentPlacement:
        result = ComponentPlacement()
        candidate_lists: list[np.ndarray] = []
        for name, module in items:
            anchors = module.anchors(self.device, ROW_STEP)
            if not len(anchors):
                raise PlacementInfeasible(
                    f"component {name}: no compatible anchors on {self.device.name}"
                )
            candidate_lists.append(anchors)
        occ = np.zeros(self.device.ncols * self.device.nrows, dtype=bool)

        # first-fit-decreasing: the biggest (most constrained) footprints
        # claim their few compatible anchors before small components
        # fragment the free space
        order: list[int] = sorted(
            range(len(items)),
            key=lambda i: -items[i][1].pblock.area,
        )
        chosen: dict[int, PBlock] = {}
        chosen_cost: dict[int, tuple[float, float]] = {}
        # per-item ranked candidates, recomputed lazily when (re)visited
        ranked: dict[int, _Ranked] = {}
        pointer: dict[int, int] = {}
        k = 0
        attempts = 0
        while k < len(order):
            idx = order[k]
            if idx not in ranked:
                ranked[idx] = self._rank(idx, candidate_lists[idx], items, connections, chosen)
                pointer[idx] = 0
            placed_here = False
            base = items[idx][1].pblock
            ranking = ranked[idx]
            while pointer[idx] < len(ranking.total):
                attempts += 1
                if attempts > MAX_ATTEMPTS:
                    raise PlacementInfeasible(
                        f"component placement exceeded {MAX_ATTEMPTS} attempts"
                    )
                at = pointer[idx]
                pointer[idx] += 1
                col, row = int(ranking.col0[at]), int(ranking.row0[at])
                pblock = PBlock(col, row, col + base.width - 1, row + base.height - 1)
                # The ranking was made against the placed set this pick
                # sees (backtracking below the item drops it), so its
                # costs are _cost's; what is left to check is the sites.
                if self._blocked(idx, pblock, items, chosen, occ):
                    continue
                chosen[idx] = pblock
                chosen_cost[idx] = (float(ranking.timing[at]), float(ranking.congestion[at]))
                occ[self._site_ids(items[idx][1], pblock)] = True
                placed_here = True
                break
            if placed_here:
                k += 1
                continue
            # exhausted: backtrack
            del ranked[idx]
            if k == 0:
                raise PlacementInfeasible(
                    f"component {items[idx][0]}: no feasible anchor (after backtracking)"
                )
            k -= 1
            prev = order[k]
            result.backtracks += 1
            prev_pb = chosen.pop(prev, None)
            if prev_pb is not None:
                occ[self._site_ids(items[prev][1], prev_pb)] = False
            chosen_cost.pop(prev, None)

        for i, (name, _module) in enumerate(items):
            pb = chosen[i]
            result.anchors[name] = (pb.col0, pb.row0)
            result.pblocks[name] = pb
            t, c = chosen_cost[i]
            result.timing_cost += t
            result.congestion_cost += c
        result.attempts = attempts
        return result

    def _site_ids(self, module: Footprint, pblock: PBlock):
        """Absolute site ids of a module's cells when anchored at *pblock*."""
        nrows = self.device.nrows
        return module.site_offsets(nrows) + (pblock.col0 * nrows + pblock.row0)

    def _rank(
        self,
        idx: int,
        anchors: "np.ndarray | list[tuple[int, int]]",
        items: list[tuple[str, Footprint]],
        connections: list[tuple[int, int]],
        placed: dict[int, PBlock],
    ) -> _Ranked:
        """Candidates sorted by weighted cost against the current partial
        placement (overlapping candidates are kept — re-checked at pick
        time, since the placed set may shrink on backtracking).

        :meth:`_cost` of every anchor at once: the candidates' corners,
        halos, port points and (column, row) order are columns
        (:func:`_geometry`, kept with the footprint), and each placed
        component and each connection adds its term to the whole column —
        in the order the scalar loops add them (``placed`` in dict order,
        *connections* in list order), so every float is the one ``_cost``
        computes — and a stable argsort stands in for the stable list
        sort.  The ranking stays columns: the search builds a
        :class:`PBlock` only for a candidate it tries, which is normally
        the first.
        """
        module = items[idx][1]
        geo = _geometry(module, anchors, self.device)
        timing = np.zeros(len(geo.col0))
        for a, b in connections:
            if a == idx and b in placed:
                src = geo.out_port
                dst = _port_point(items[b][1], "in", placed[b])
            elif b == idx and a in placed:
                src = _port_point(items[a][1], "out", placed[a])
                dst = geo.in_port
            else:
                continue
            timing += np.abs(src[0] - dst[0]) + np.abs(src[1] - dst[1])

        congestion = np.zeros(len(geo.col0))
        if placed:
            # Each placed component (in dict order) adds, to every candidate,
            # their halos' overlap over the candidate's area: +0.0 — which
            # adds nothing — where the halos miss.  So the pairs (placed,
            # candidate) a term is added for are all of them while there
            # are few, and otherwise those anchored where the halos can
            # meet: per placed component and column of that window, one
            # slice of the anchors in (column, row) order, found by
            # bisection.  The pairs run placed by placed and add.at adds
            # them in that order.
            device, h, base = self.device, HALO, module.pblock
            theirs = np.array([_halo(p, h, device) for p in placed.values()])
            if len(theirs) * len(geo.col0) <= DENSE_PAIRS:
                placed_of = np.arange(len(theirs))
                near = np.tile(np.arange(len(geo.col0)), len(theirs))
                lens = np.full(len(theirs), len(geo.col0))
            else:
                nrows = device.nrows
                col_lo = np.maximum(theirs[:, 0] - (base.width - 1) - h, 0)
                row_lo = np.maximum(theirs[:, 1] - (base.height - 1) - h, 0)
                row_hi = np.minimum(theirs[:, 3] + h, nrows - 1)
                ncols = np.maximum(theirs[:, 2] + h - col_lo + 1, 0)
                placed_of = np.repeat(np.arange(len(theirs)), ncols)
                col = np.repeat(col_lo - (np.cumsum(ncols) - ncols), ncols) + np.arange(ncols.sum())
                first = np.searchsorted(geo.key, col * nrows + row_lo[placed_of])
                lens = np.searchsorted(geo.key, col * nrows + row_hi[placed_of] + 1) - first
                near = geo.order[np.repeat(first - (np.cumsum(lens) - lens), lens)
                                 + np.arange(lens.sum())]
            their = theirs[np.repeat(placed_of, lens)].T
            mine = geo.halo[:, near]
            dc = np.minimum(mine[2], their[2]) - np.maximum(mine[0], their[0]) + 1
            dr = np.minimum(mine[3], their[3]) - np.maximum(mine[1], their[1]) + 1
            np.add.at(congestion, near, (np.maximum(dc, 0) * np.maximum(dr, 0)) / base.area)

        total = TIMING_WEIGHT * timing + CONGESTION_WEIGHT * congestion
        best = np.argsort(total, kind="stable")[:MAX_CANDIDATES]
        return _Ranked(total[best], timing[best], congestion[best],
                       geo.col0[best], geo.row0[best])


class _Geometry(NamedTuple):
    """What ranking a module's *anchors* reads of them, whatever is
    placed: the anchors that keep its pblock on the device (their
    corners), its partition-pin points there, its congestion halos
    (``(4, n)``: the :func:`_halo` corners of each), and the anchors in
    (column, row) order — ``order`` and the sorted ``key``,
    ``col * nrows + row``."""

    anchors: object
    col0: np.ndarray
    row0: np.ndarray
    in_port: tuple
    out_port: tuple
    halo: np.ndarray
    order: np.ndarray
    key: np.ndarray


def _geometry(module: Footprint, anchors, device: Device) -> _Geometry:
    """:class:`_Geometry` of *anchors* for *module* on *device*.  Kept in
    the footprint beside :meth:`Footprint.anchors` for the array that
    returns (the same object every run), by device grid and halo."""
    key = ("ranking", device.ncols, device.nrows, HALO)
    geo = module._kept.get(key)
    if geo is not None and geo.anchors is anchors:
        return geo
    base = module.pblock
    at = np.asarray(anchors, dtype=np.int64).reshape(-1, 2)
    boxes = _Boxes(at[:, 0], at[:, 1],
                   at[:, 0] + (base.width - 1), at[:, 1] + (base.height - 1))
    inside = (boxes.col1 < device.ncols) & (boxes.row1 < device.nrows)
    if not inside.all():
        boxes = _Boxes(*(corner[inside] for corner in boxes))
    h = HALO
    halo = np.array([np.maximum(0, boxes.col0 - h), np.maximum(0, boxes.row0 - h),
                     np.minimum(device.ncols - 1, boxes.col1 + h),
                     np.minimum(device.nrows - 1, boxes.row1 + h)]).reshape(4, -1)
    at = boxes.col0 * device.nrows + boxes.row0
    order = np.argsort(at, kind="stable")      # (anchors come sorted: one pass)
    geo = module._kept[key] = _Geometry(
        anchors, boxes.col0, boxes.row0,
        _port_point(module, "in", boxes), _port_point(module, "out", boxes),
        halo, order, at[order])
    return geo
