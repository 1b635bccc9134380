"""Performance exploration / automated floorplanning (paper Fig. 3).

The paper's function-optimization box is a *design-space exploration*
("Iteration to meet the constraints"), and its conclusion names two
future-work items: "an optimized and automated floor planning" and
"optimization approaches to improve the performance of components during
the function optimization stage".  This module implements both:

:func:`explore_component` sweeps placement seeds, floorplan slack and
pblock aspect (height) for one component at one effort preset, keeping
the best implementation by a configurable objective (Fmax by default,
optionally trading off relocatability), with early exit once a target
frequency is met.  A component library build is the one-point sweep
(:func:`repro.engine.workers.build_component`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..cnn.graph import Component
from ..fabric.device import Device
from ..netlist.codec import decode_design
from ..obs.span import span
from ..synth.generator import generate_component
from .module import candidate_anchors
from .ooc import OOCResult, preimplement

__all__ = ["ExploreTrial", "ExploreResult", "explore_component"]


@dataclass(frozen=True)
class ExploreTrial:
    """One point of the exploration."""

    seed: int
    slack: float
    max_height: int | None
    fmax_mhz: float
    anchors: int | None  # None in a one-point sweep: nothing is ranked
    pblock_area: int
    score: float


@dataclass
class ExploreResult:
    """Best implementation plus the full trial record."""

    best: OOCResult
    trials: list[ExploreTrial] = field(default_factory=list)

    @property
    def best_trial(self) -> ExploreTrial:
        return max(self.trials, key=lambda t: t.score)

    def report(self) -> str:
        lines = ["seed slack height   fmax  anchors  area   score"]
        for t in sorted(self.trials, key=lambda t: -t.score):
            lines.append(
                f"{t.seed:4d} {t.slack:5.2f} "
                f"{t.max_height if t.max_height else '-':>6} "
                f"{t.fmax_mhz:6.1f} {t.anchors if t.anchors is not None else '-':>8} "
                f"{t.pblock_area:5d} {t.score:7.1f}"
            )
        return "\n".join(lines)


def explore_component(
    component: Component,
    device: Device,
    *,
    rom_weights: bool = True,
    effort: str = "high",
    seeds: Iterable[int] = (0, 1, 2),
    slacks: Iterable[float] = (1.15,),
    heights: Iterable[int | None] = (None,),
    plan_ports: bool = True,
    target_fmax_mhz: float | None = None,
    anchor_weight: float = 0.0,
    jobs: int | None = 1,
) -> ExploreResult:
    """Sweep the function-optimization space for one component.

    Parameters
    ----------
    component / rom_weights:
        The library component to tune; each trial implements a fresh
        ``generate_component(component, rom_weights=rom_weights)``, in
        whichever process it lands on.
    effort:
        The placement effort preset of every trial.
    seeds / slacks / heights:
        The swept axes: placement seed, floorplan slack, and pblock
        max-height (``None`` = the automatic aspect heuristic).  Trials
        are recorded in grid order: slack, then height and seed.
    target_fmax_mhz:
        Early exit once a trial meets this frequency (the paper's
        "iteration to meet the constraints"): the recorded sweep ends at
        the first qualifying trial in grid order.
    anchor_weight:
        Score = Fmax + ``anchor_weight`` x (#compatible anchors); a
        positive weight trades a little frequency for reusability
        (smaller, more relocatable pblocks).
    jobs:
        ``1`` evaluates the trials in-process, one at a time, so the
        early exit skips every trial after the first that meets the
        target.  Anything else evaluates all of them concurrently as
        independent :class:`repro.engine.executor.Engine` tasks (``None``
        = one worker per usable core); the result is identical to the
        in-process sweep, and the trials after an early exit are
        speculative work that is discarded.

    Returns the best implementation; its design is locked and ready for
    the checkpoint database.
    """
    grid = [(slack, height, seed) for slack in slacks for height in heights for seed in seeds]
    if not grid:
        raise ValueError("exploration space is empty (check the sweep axes)")
    if jobs == 1:
        outcomes = _in_process(component, device, effort, grid, rom_weights, plan_ports)
    else:
        from ..engine.executor import Engine, TaskSpec
        from ..engine.workers import run_explore_trial

        report = Engine(jobs=jobs).run([
            TaskSpec(f"trial{i}", run_explore_trial,
                     (component, device, effort, point, rom_weights, plan_ports),
                     stage="explore/trial")
            for i, point in enumerate(grid)
        ])
        outcomes = _reattached(report.results[f"trial{i}"] for i in range(len(grid)))

    best: OOCResult | None = None
    trials: list[ExploreTrial] = []
    for (slack, height, seed), ooc in zip(grid, outcomes):
        anchors = len(candidate_anchors(device, ooc.design)) if len(grid) > 1 else None
        trial = ExploreTrial(
            seed=seed,
            slack=slack,
            max_height=height,
            fmax_mhz=ooc.fmax_mhz,
            anchors=anchors,
            pblock_area=ooc.pblock.area,
            score=ooc.fmax_mhz + anchor_weight * (anchors or 0),
        )
        if best is None or trial.score > max(t.score for t in trials):
            best = ooc
        trials.append(trial)
        if target_fmax_mhz is not None and ooc.fmax_mhz >= target_fmax_mhz:
            break
    return ExploreResult(best=best, trials=trials)


def implement_trial(component: Component, device: Device, effort: str, point: tuple,
                    rom_weights: bool, plan_ports: bool) -> OOCResult:
    """Pre-implement a fresh design of *component* at *effort* and one grid
    *point* ``(slack, height, seed)``."""
    slack, height, seed = point
    return preimplement(
        generate_component(component, rom_weights=rom_weights), device, effort=effort, seed=seed, plan_ports=plan_ports,
        slack=slack, max_height=height,
    )


def _in_process(component, device, effort, grid, rom_weights, plan_ports) -> Iterator[OOCResult]:
    """The trials one at a time, each only once the sweep asks for it."""
    for point in grid:
        with span("explore/trial"):
            outcome = implement_trial(component, device, effort, point, rom_weights, plan_ports)
        yield outcome


def _reattached(results) -> Iterator[OOCResult]:
    """Pooled trial outputs with each locked design decoded back in."""
    for ooc, blob in results:
        ooc.design = decode_design(blob)
        yield ooc
