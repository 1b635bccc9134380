"""Performance exploration / automated floorplanning (paper Fig. 3).

The paper's function-optimization box is a *design-space exploration*
("Iteration to meet the constraints"), and its conclusion names two
future-work items: "an optimized and automated floor planning" and
"optimization approaches to improve the performance of components during
the function optimization stage".  This module implements both:

:func:`explore_component` sweeps placement seeds, effort presets,
floorplan slack, and pblock aspect (height) for one component, keeping
the best implementation by a configurable objective (Fmax by default,
optionally trading off relocatability), with early exit once a target
frequency is met.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .._util import StageTimer
from ..fabric.device import Device
from ..netlist.codec import decode_design
from ..netlist.design import Design
from .module import candidate_anchors
from .ooc import OOCResult, preimplement

__all__ = ["ExploreTrial", "ExploreResult", "explore_component"]


@dataclass(frozen=True)
class ExploreTrial:
    """One point of the exploration."""

    seed: int
    effort: str
    slack: float
    max_height: int | None
    fmax_mhz: float
    anchors: int
    pblock_area: int
    score: float


@dataclass
class ExploreResult:
    """Best implementation plus the full trial record."""

    best: OOCResult
    trials: list[ExploreTrial] = field(default_factory=list)
    timer: StageTimer = field(default_factory=StageTimer)

    @property
    def best_trial(self) -> ExploreTrial:
        return max(self.trials, key=lambda t: t.score)

    def report(self) -> str:
        lines = ["seed effort slack height   fmax  anchors  area   score"]
        for t in sorted(self.trials, key=lambda t: -t.score):
            lines.append(
                f"{t.seed:4d} {t.effort:>6s} {t.slack:5.2f} "
                f"{t.max_height if t.max_height else '-':>6} "
                f"{t.fmax_mhz:6.1f} {t.anchors:8d} {t.pblock_area:5d} {t.score:7.1f}"
            )
        return "\n".join(lines)


def explore_component(
    factory: Callable[[], Design],
    device: Device,
    *,
    seeds: Iterable[int] = (0, 1, 2),
    efforts: Iterable[str] = ("high",),
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
    factory:
        Zero-argument callable producing a *fresh* unimplemented design
        (each trial consumes one).  For ``jobs != 1`` a picklable factory
        (e.g. :class:`repro.engine.workers.ComponentFactory`) lets trials
        run in worker processes; unpicklable factories silently fall back
        to in-process execution.
    seeds / efforts / slacks / heights:
        The swept axes: placement seed, effort preset, floorplan slack,
        and pblock max-height (``None`` = the automatic aspect heuristic).
        Trials are recorded in grid order: slack, then height, effort and
        seed.
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
    grid = [
        (slack, height, effort, seed)
        for slack in slacks
        for height in heights
        for effort in efforts
        for seed in seeds
    ]
    if not grid:
        raise ValueError("exploration space is empty (check the sweep axes)")
    if jobs == 1:
        timer = StageTimer()
        outcomes = _in_process(factory, device, grid, plan_ports, timer)
    else:
        from ..engine.executor import Engine, TaskSpec
        from ..engine.workers import run_explore_trial

        report = Engine(jobs=jobs).run([
            TaskSpec(f"trial{i}", run_explore_trial, (factory, device, point, plan_ports),
                     stage="explore/trial")
            for i, point in enumerate(grid)
        ])
        timer = report.timer()
        outcomes = _reattached(report.results[f"trial{i}"] for i in range(len(grid)))

    best: OOCResult | None = None
    trials: list[ExploreTrial] = []
    for (slack, height, effort, seed), (ooc, anchors) in zip(grid, outcomes):
        trial = ExploreTrial(
            seed=seed,
            effort=effort,
            slack=slack,
            max_height=height,
            fmax_mhz=ooc.fmax_mhz,
            anchors=anchors,
            pblock_area=ooc.pblock.area,
            score=ooc.fmax_mhz + anchor_weight * anchors,
        )
        if best is None or trial.score > max(t.score for t in trials):
            best = ooc
        trials.append(trial)
        if target_fmax_mhz is not None and ooc.fmax_mhz >= target_fmax_mhz:
            break
    return ExploreResult(best=best, trials=trials, timer=timer)


def implement_trial(
    factory: Callable[[], Design], device: Device, point: tuple, plan_ports: bool
) -> tuple[OOCResult, int]:
    """Pre-implement a fresh design at one grid *point*
    ``(slack, height, effort, seed)``; return it with its anchor count."""
    slack, height, effort, seed = point
    design = factory()
    ooc = preimplement(
        design, device, effort=effort, seed=seed, plan_ports=plan_ports,
        slack=slack, max_height=height,
    )
    return ooc, len(candidate_anchors(device, design))


def _in_process(factory, device, grid, plan_ports, timer) -> Iterator[tuple[OOCResult, int]]:
    """The trials one at a time, each only once the sweep asks for it."""
    for point in grid:
        with timer.stage("explore/trial"):
            outcome = implement_trial(factory, device, point, plan_ports)
        yield outcome


def _reattached(results) -> Iterator[tuple[OOCResult, int]]:
    """Pooled trial outputs with each locked design decoded back in."""
    for ooc, blob, anchors in results:
        ooc.design = decode_design(blob)
        yield ooc, anchors
