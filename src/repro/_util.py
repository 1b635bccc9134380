"""Small shared utilities: seeded RNG handling, id generation, ordered sums.

Every stochastic stage of the flows (placement annealing, router tie
breaking, synthetic weights) draws randomness from a
:class:`numpy.random.Generator` seeded explicitly, so a flow run is a pure
function of ``(design, seed)``.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce

import numpy as np

__all__ = ["make_rng", "fresh_name", "manhattan", "sum_left_to_right"]

def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (seeded with 0 so library behaviour stays deterministic by
    default — callers wanting true entropy must ask for it explicitly).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(0 if seed is None else seed)


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
