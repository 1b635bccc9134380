"""Shared fixtures for the benchmark harness.

Every experiment needs one or both flows run on LeNet/VGG; these are
computed once per session and shared, so the harness stays tractable
while still measuring real end-to-end executions.  Each benchmark file
prints the paper-style table (paper-reported values next to measured
ones) — EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import Device
from repro.rapidwright import ComponentDatabase
from repro.spec import FIG6_EFFORT, JobSpec, compile_spec
from repro.vivado import FlowResult

SEED = 0


@dataclass
class FlowPair:
    """Baseline + pre-implemented results for one network."""

    network: str
    baseline: FlowResult
    ours: FlowResult
    database: ComponentDatabase
    offline_s: float


def _pair(model: str, **options) -> FlowPair:
    """The monolithic comparator against the library flow at the Fig. 6
    efforts, both compiled from one spec of *model*."""
    baseline = compile_spec(JobSpec(model=model, flow="baseline",
                                    effort=FIG6_EFFORT["baseline"], seed=SEED, **options))
    ours = compile_spec(JobSpec(model=model, effort=FIG6_EFFORT["preimpl"], seed=SEED,
                                **options))
    return FlowPair(model, baseline, ours, ours.extras["database"], ours.extras["offline_s"])


@pytest.fixture(scope="session")
def device() -> Device:
    return Device.from_name("ku5p-like")


@pytest.fixture(scope="session")
def lenet_pair() -> FlowPair:
    return _pair("lenet5")


@pytest.fixture(scope="session")
def lenet_caffe_pair() -> FlowPair:
    """The Caffe 20/50-filter LeNet, whose ROM-resident 431 K weights match
    the BRAM-heavy Table II profile (the classic variant drives Table III)."""
    return _pair("lenet5_caffe")


@pytest.fixture(scope="session")
def vgg_pair() -> FlowPair:
    # VGG spreads across fabric discontinuities; the paper closes timing
    # with phys-opt pipeline FFs (Sec. V-E), at a small latency cost.  The
    # baseline ignores ``pipeline``.
    return _pair("vgg16", granularity="block", stream_weights=True, pipeline="auto")


def show(text: str) -> None:
    """Print a benchmark table (pytest -s shows it; captured otherwise)."""
    print("\n" + text + "\n")
