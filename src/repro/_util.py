"""Small shared utilities: seeded RNG handling, timers, and id generation.

Every stochastic stage of the flows (placement annealing, router tie
breaking, synthetic weights) draws randomness from a
:class:`numpy.random.Generator` seeded explicitly, so a flow run is a pure
function of ``(design, seed)``.
"""

from __future__ import annotations

import itertools
import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .obs.span import span as _obs_span

__all__ = ["make_rng", "StageTimer", "fresh_name", "manhattan", "sum_left_to_right"]

def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (seeded with 0 so library behaviour stays deterministic by
    default — callers wanting true entropy must ask for it explicitly).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(0 if seed is None else seed)


@dataclass
class StageTimer:
    """Accumulates wall-clock time per named flow stage.

    The productivity experiments (Fig. 6 of the paper) compare compile time
    between flows; each flow records its stage breakdown here so the
    benchmark harness can report, e.g., what fraction of the
    pre-implemented flow is spent stitching versus routing.
    """

    stages: dict[str, float] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    @contextmanager
    def stage(self, name: str):
        """Time a stage; also opens a :mod:`repro.obs` span of the same
        name, so every ``StageTimer`` call site is traced for free (the
        span nests under whatever span is active in the caller)."""
        start = time.perf_counter()
        with _obs_span(name):
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                if name not in self.stages:
                    self.order.append(name)
                    self.stages[name] = 0.0
                self.stages[name] += elapsed

    def add(self, name: str, seconds: float) -> None:
        if name not in self.stages:
            self.order.append(name)
            self.stages[name] = 0.0
        self.stages[name] += seconds

    @property
    def total(self) -> float:
        """Wall-clock total over top-level stages.

        Stage names containing ``/`` are sub-stages nested inside a
        top-level stage and are excluded to avoid double counting.
        """
        top = [v for k, v in self.stages.items() if "/" not in k]
        return sum(top) if top else sum(self.stages.values())

    def report(self) -> str:
        lines = [f"{name:<28s} {self.stages[name]:10.3f} s" for name in self.order]
        lines.append(f"{'total':<28s} {self.total:10.3f} s")
        return "\n".join(lines)


_counters: dict[str, itertools.count] = {}


def fresh_name(prefix: str) -> str:
    """Return a unique name ``prefix_<n>`` (process-wide monotonic)."""
    counter = _counters.setdefault(prefix, itertools.count())
    return f"{prefix}_{next(counter)}"


def manhattan(ax: int, ay: int, bx: int, by: int) -> int:
    """Manhattan distance between two tile coordinates."""
    return abs(ax - bx) + abs(ay - by)


def sum_left_to_right(values):
    """``0 + v0 + v1 + ...``, one float addition at a time.

    What builtin ``sum`` computes up to CPython 3.11; from 3.12 it
    carries Neumaier's compensation, so the same floats would add up to
    a different result on a different interpreter.  Every float sum whose
    bits are part of a result (cost totals the annealer compares, the
    power report) goes through here instead.  An ndarray is added by
    ``np.cumsum``, which is sequential (``ndarray.sum`` adds pairwise);
    ``0.0 +`` its last entry is the ``0 +`` the loop starts with.
    """
    if type(values) is np.ndarray:
        return 0.0 + float(np.cumsum(values, dtype=np.float64)[-1]) if values.size else 0
    return reduce(operator.add, values, 0)
