"""Placement problem extraction.

Converts a :class:`Design` into the array form the placement engines
consume: movable cell positions, per-net pin lists (movable indices plus
fixed pin coordinates from locked cells), and legal site pools per cell
type.  Locked cells (pre-implemented module internals) are immovable and
appear only as fixed pins.

``problem.nets`` — one :class:`NetPins` per net — is what a problem is
built from and what the reference annealer walks.  Every vectorised
stage (global placement, the compiled annealer's set-up, the result's
HPWL) reads :attr:`PlacementProblem.columns` instead: the same nets as
one CSR plus per-net columns, built once per problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..fabric.device import Device
from ..fabric.pblock import PBlock
from ..netlist.design import Design, DesignError

__all__ = ["PlacementProblem", "NetPins", "NetColumns"]


def _module_centers(
    modules: list[str],
    counts: dict[str, int],
    bounds: tuple[float, float, float, float],
) -> dict[str, np.ndarray]:
    """Lay module centers along the region's longer axis, in dataflow
    order, with spans proportional to module size."""
    c0, r0, c1, r1 = bounds
    total = sum(counts.values()) or 1
    along_x = (c1 - c0) >= (r1 - r0)
    length = (c1 - c0) if along_x else (r1 - r0)
    cross_mid = (r0 + r1) / 2.0 if along_x else (c0 + c1) / 2.0
    centers: dict[str, np.ndarray] = {}
    cursor = 0.0
    for m in modules:
        frac = counts[m] / total
        mid = cursor + frac / 2.0
        cursor += frac
        main = (c0 if along_x else r0) + mid * length
        centers[m] = np.array([main, cross_mid] if along_x else [cross_mid, main])
    return centers


@dataclass
class NetPins:
    """One net's pins in array form."""

    movable: np.ndarray          # indices into the movable-cell arrays
    fixed: np.ndarray            # (k, 2) fixed pin coordinates
    weight: float = 1.0


@dataclass(frozen=True)
class NetColumns:
    """Every net of a problem as flat columns.

    Net ``k``'s movable pins are ``pins[offs[k]:offs[k + 1]]``, in the
    order (and with the repeats) its :class:`NetPins` lists them.  A net
    without fixed pins has ``fixed_lo = +inf`` / ``fixed_hi = -inf`` —
    which ``min`` / ``max`` ignore exactly — and ``fixed_sum = 0``.
    """

    offs: np.ndarray        # (n_nets + 1,) int64 CSR offsets into ``pins``
    pins: np.ndarray        # int64 movable-cell indices
    weight: np.ndarray      # (n_nets,) float64
    n_fixed: np.ndarray     # (n_nets,) int64 fixed pins per net
    fixed_lo: np.ndarray    # (n_nets, 2) per-axis min of the fixed pins
    fixed_hi: np.ndarray    # (n_nets, 2) per-axis max of the fixed pins
    fixed_sum: np.ndarray   # (n_nets, 2) per-axis sum of the fixed pins

    @classmethod
    def from_nets(cls, nets: list[NetPins]) -> "NetColumns":
        """Columns of *nets*; a net with no pin at all is a ``ValueError``
        (it has no bounding box and no centre)."""
        n_nets = len(nets)
        count = np.fromiter((len(net.movable) for net in nets), np.int64, n_nets)
        offs = np.zeros(n_nets + 1, dtype=np.int64)
        np.cumsum(count, out=offs[1:])
        pins = np.empty(0, dtype=np.int64)
        if n_nets:
            pins = np.concatenate([net.movable for net in nets]).astype(np.int64, copy=False)
        n_fixed = np.fromiter((net.fixed.shape[0] for net in nets), np.int64, n_nets)
        empty = np.flatnonzero(count + n_fixed == 0)
        if empty.size:
            raise ValueError(f"net {int(empty[0])} has neither movable nor fixed pins")
        fixed_lo = np.full((n_nets, 2), np.inf)
        fixed_hi = np.full((n_nets, 2), -np.inf)
        fixed_sum = np.zeros((n_nets, 2), dtype=np.float64)
        # only the nets that have fixed pins, each by the very calls the
        # scalar forms make (the order numpy adds in is its own business)
        for k in np.flatnonzero(n_fixed).tolist():
            fixed = nets[k].fixed
            fixed_lo[k] = fixed.min(axis=0)
            fixed_hi[k] = fixed.max(axis=0)
            fixed_sum[k] = fixed.sum(axis=0)
        return cls(
            offs=offs, pins=pins,
            weight=np.array([net.weight for net in nets], dtype=np.float64),
            n_fixed=n_fixed, fixed_lo=fixed_lo, fixed_hi=fixed_hi, fixed_sum=fixed_sum,
        )

    @property
    def count(self) -> np.ndarray:
        """Movable pins per net."""
        return np.diff(self.offs)

    def select(self, keep: np.ndarray) -> "NetColumns":
        """The nets where boolean *keep* is set, order preserved."""
        count = self.count
        offs = np.zeros(int(np.count_nonzero(keep)) + 1, dtype=np.int64)
        np.cumsum(count[keep], out=offs[1:])
        return NetColumns(
            offs=offs, pins=self.pins[np.repeat(keep, count)],
            weight=self.weight[keep], n_fixed=self.n_fixed[keep],
            fixed_lo=self.fixed_lo[keep], fixed_hi=self.fixed_hi[keep],
            fixed_sum=self.fixed_sum[keep],
        )

    def boxes(self, xs: np.ndarray, ys: np.ndarray):
        """Bounding boxes ``x0, x1, y0, y1`` of all nets at cell positions
        *xs*, *ys*: movable and fixed pins, exact (min/max only).

        ``reduceat`` runs over the nets that have a movable pin — for an
        empty segment it would return the *next* net's first pin — and a
        net without one keeps its fixed-pin box.
        """
        has = self.offs[1:] > self.offs[:-1]
        starts = self.offs[:-1][has]
        out = []
        for at, col in ((xs, 0), (ys, 1)):
            at = at[self.pins]
            lo = self.fixed_lo[:, col].copy()
            hi = self.fixed_hi[:, col].copy()
            lo[has] = np.minimum(np.minimum.reduceat(at, starts), lo[has])
            hi[has] = np.maximum(np.maximum.reduceat(at, starts), hi[has])
            out += [lo, hi]
        return tuple(out)

    def hpwl(self, pos: np.ndarray) -> float:
        """Total weighted HPWL at ``(n, 2)`` positions *pos*: exact boxes,
        then the per-net values added left to right, as
        ``sum(net_hpwl(pos, net))`` adds them."""
        x0, x1, y0, y1 = self.boxes(pos[:, 0], pos[:, 1])
        return float(sum((((x1 - x0) + (y1 - y0)) * self.weight).tolist()))


@dataclass
class PlacementProblem:
    """Array view of a placement instance."""

    design: Design
    device: Device
    region: PBlock | None
    names: list[str] = field(default_factory=list)
    ctypes: list[str] = field(default_factory=list)
    modules: list[str | None] = field(default_factory=list)
    nets: list[NetPins] = field(default_factory=list)
    site_pools: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def from_design(
        cls, design: Design, device: Device, region: PBlock | None = None
    ) -> "PlacementProblem":
        region = region if region is not None else design.pblock
        problem = cls(design=design, device=device, region=region)

        names, ctypes, modules = problem.names, problem.ctypes, problem.modules
        index: dict[str, int] = {}
        locked_at: dict[str, tuple[int, int]] = {}
        for cell in design.cells.values():
            if cell.locked:
                if not cell.is_placed:
                    raise DesignError(f"locked cell {cell.name} is unplaced")
                locked_at[cell.name] = cell.placement
                continue
            index[cell.name] = len(names)
            names.append(cell.name)
            ctypes.append(cell.ctype)
            modules.append(cell.module)

        # Movable pins of all kept nets go into one flat array and every
        # NetPins.movable is a slice of it: one allocation, not one per net.
        flat: list[int] = []
        kept: list[tuple[int, list[tuple[int, int]], float]] = []  # (pins end, fixed, weight)
        for net in design.nets.values():
            if net.is_clock:
                continue
            endpoints = [net.driver, *net.sinks] if net.driver else net.sinks
            movable: list[int] = []
            fixed: list[tuple[int, int]] = []
            for name in dict.fromkeys(endpoints):  # each cell once, first occurrence
                i = index.get(name)
                if i is not None:
                    movable.append(i)
                elif name in locked_at:
                    fixed.append(locked_at[name])
            if len(movable) + len(fixed) < 2 or not movable:
                continue
            flat += movable
            kept.append((len(flat), fixed, float(net.width) ** 0.5))
        pins = np.asarray(flat, dtype=np.int64)
        no_fixed = np.zeros((0, 2), dtype=np.float64)
        start = 0
        for end, fixed, weight in kept:
            problem.nets.append(NetPins(
                movable=pins[start:end],
                fixed=np.asarray(fixed, dtype=np.float64) if fixed else no_fixed,
                weight=weight,
            ))
            start = end

        problem._build_site_pools()
        return problem

    # -- sites ---------------------------------------------------------------

    def _build_site_pools(self) -> None:
        taken = {
            cell.placement
            for cell in self.design.cells.values()
            if cell.locked and cell.is_placed
        }
        needed: dict[str, int] = {}
        for ctype in self.ctypes:
            needed[ctype] = needed.get(ctype, 0) + 1
        for ctype, count in needed.items():
            sites = self.device.sites_of(ctype)
            if self.region is not None:  # same column-major order as PBlock.sites_of
                col, row = sites[:, 0], sites[:, 1]
                sites = sites[
                    (col >= self.region.col0) & (col <= self.region.col1)
                    & (row >= self.region.row0) & (row <= self.region.row1)
                ]
            if taken and sites.size:
                mask = np.array([(int(c), int(r)) not in taken for c, r in sites])
                sites = sites[mask]
            if sites.shape[0] < count:
                where = str(self.region) if self.region else self.device.name
                raise DesignError(
                    f"not enough {ctype} sites in {where}: need {count}, have {sites.shape[0]}"
                )
            self.site_pools[ctype] = sites

    # -- geometry helpers -----------------------------------------------------

    @property
    def n_movable(self) -> int:
        return len(self.names)

    @cached_property
    def columns(self) -> NetColumns:
        """``self.nets`` in columnar form, built on first use — the nets
        are not to change afterwards."""
        return NetColumns.from_nets(self.nets)

    def bounds(self) -> tuple[float, float, float, float]:
        """(col0, row0, col1, row1) of the placeable region."""
        if self.region is not None:
            return (self.region.col0, self.region.row0, self.region.col1, self.region.row1)
        return (0, 0, self.device.ncols - 1, self.device.nrows - 1)

    def initial_positions(self, rng: np.random.Generator) -> np.ndarray:
        """Float start positions inside the region.

        Multi-module designs (a flat network of instantiated components)
        start module-clustered: each module gets a cell in a grid laid
        over the region, sized by its cell count, and its cells start
        jittered around that center.  This hierarchy-aware seeding is what
        lets the analytic global placer converge on 40k-cell networks —
        with a fully random start the star model needs far more
        iterations than any reasonable budget.
        """
        c0, r0, c1, r1 = self.bounds()
        n = self.n_movable
        unique_modules = [m for m in dict.fromkeys(self.modules) if m is not None]
        if len(unique_modules) > 1:
            code: dict[str | None, int] = {m: k for k, m in enumerate(unique_modules)}
            code[None] = len(unique_modules)
            which = np.fromiter(map(code.__getitem__, self.modules), np.int64, n)
            counts = np.bincount(which, minlength=len(code)).tolist()
            centers = _module_centers(
                unique_modules, dict(zip(unique_modules, counts)), (c0, r0, c1, r1)
            )
            span = max(c1 - c0, r1 - r0)
            jitter = rng.normal(0.0, max(1.0, span * 0.03), size=(n, 2))
            # module-less cells index a placeholder row and are overwritten
            # below with the uniform draws the per-cell form made for them:
            # column then row, cell after cell, after the jitter block
            rows = np.array([centers[m] for m in unique_modules] + [[0.0, 0.0]])
            pos = rows[which] + jitter
            free = which == code[None]
            pos[free] = rng.uniform((c0, r0), (c1, r1), size=(counts[-1], 2))
            pos[:, 0] = np.clip(pos[:, 0], c0, c1)
            pos[:, 1] = np.clip(pos[:, 1], r0, r1)
        else:
            pos = np.empty((n, 2), dtype=np.float64)
            pos[:, 0] = rng.uniform(c0, c1, size=n)
            pos[:, 1] = rng.uniform(r0, r1, size=n)
        return pos

    def apply(self, sites: np.ndarray) -> None:
        """Write final integer *sites* (n, 2) back into the design."""
        if sites.shape != (self.n_movable, 2):
            raise ValueError(f"expected ({self.n_movable}, 2) sites, got {sites.shape}")
        cells = self.design.cells
        for name, (col, row) in zip(self.names, sites.tolist()):
            cells[name].placement = (int(col), int(row))
