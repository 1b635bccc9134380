"""Placer facade: global place -> legalize -> annealing refinement.

Effort presets mirror vendor strategy levels; the refinement budget is
bounded per design (see :mod:`repro.place.annealer`), so quality degrades
gracefully with size — big monolithic designs get relatively less
optimisation than small pre-implemented components, which is the premise
of the paper's flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import make_rng
from ..fabric.device import Device
from ..fabric.pblock import PBlock
from ..netlist.design import Design
from ..obs.span import span
from .annealer import AnnealStats, anneal
from .cost import congestion_overflow
from .global_place import global_place
from .legalize import legalize
from .problem import PlacementProblem

__all__ = ["Effort", "EFFORTS", "PlacementResult", "place_design"]


@dataclass(frozen=True)
class Effort:
    """Placement effort preset."""

    name: str
    gp_iters: int
    moves_per_cell: int
    max_moves: int


EFFORTS: dict[str, Effort] = {
    "low": Effort("low", gp_iters=15, moves_per_cell=10, max_moves=150_000),
    "medium": Effort("medium", gp_iters=30, moves_per_cell=40, max_moves=1_600_000),
    "high": Effort("high", gp_iters=50, moves_per_cell=120, max_moves=3_200_000),
}


@dataclass
class PlacementResult:
    """Summary of a placement run."""

    n_cells: int
    hpwl: float
    overflow: float
    anneal: AnnealStats | None

    def __repr__(self) -> str:
        return f"<PlacementResult cells={self.n_cells} hpwl={self.hpwl:.0f}>"


def _auto_region(design: Design, device: Device) -> PBlock | None:
    """Density-based working region for unconstrained placements.

    Real global placers keep unconstrained designs compact instead of
    smearing them over the whole die; this picks a region sized to the
    design's site demand with headroom, falling back to the full device
    when the design is too large to bound.
    """
    from math import ceil, sqrt

    from ..fabric.pblock import auto_pblock

    demand = {k: v for k, v in design.site_demand().items() if v > 0}
    slices = demand.get("SLICE", 0)
    # locked cells keep their own sites; only movable demand matters
    movable = sum(1 for c in design.cells.values() if not c.locked)
    if movable == 0 or not demand:
        return None
    height = min(
        device.nrows,
        max(device.part.clock_region_rows, int(2 * ceil(sqrt(max(slices, movable))))),
    )
    try:
        return auto_pblock(device, demand, anchor=(0, 0), slack=1.6, max_height=height)
    except ValueError:
        return None


def place_design(
    design: Design,
    device: Device,
    *,
    region: PBlock | None = None,
    effort: str | Effort = "medium",
    seed: int | np.random.Generator = 0,
) -> PlacementResult:
    """Place all unlocked cells of *design* onto *device*.

    Locked (pre-implemented) cells are treated as fixed obstacles and
    anchors.  ``region`` (or ``design.pblock``) constrains the area.
    Raises :class:`repro.netlist.DesignError` when sites are insufficient.
    """
    if isinstance(effort, str):
        try:
            effort = EFFORTS[effort]
        except KeyError:
            known = ", ".join(EFFORTS)
            raise KeyError(f"unknown effort {effort!r}; known: {known}") from None
    rng = make_rng(seed)

    if region is None and design.pblock is None:
        region = _auto_region(design, device)

    with span("place/extract"):
        problem = PlacementProblem.from_design(design, device, region)
    if problem.n_movable == 0:
        return PlacementResult(0, 0.0, 0.0, None)

    with span("place/global"):
        pos = global_place(problem, rng, iters=effort.gp_iters)
    with span("place/legalize"):
        sites = legalize(problem, pos)
    with span("place/refine"):
        stats = anneal(
            problem,
            sites,
            seed=rng,
            moves_per_cell=effort.moves_per_cell,
            max_moves=effort.max_moves,
        )
    problem.apply(sites)

    final_pos = sites.astype(float)
    return PlacementResult(
        n_cells=problem.n_movable,
        hpwl=problem.columns.hpwl(final_pos),
        overflow=congestion_overflow(final_pos, problem.bounds()),
        anneal=stats,
    )
