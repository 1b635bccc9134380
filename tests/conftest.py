"""Shared fixtures: devices of several sizes, a tiny CNN, traced LeNet runs."""

from __future__ import annotations

import pytest

from repro import Device, sanitize
from repro.cnn import (Conv2D, Dense, DFG, Flatten, Input, MaxPool2D, ReLU, group_components,
                       lenet5)
from repro.fabric import RoutingGraph
from repro.obs import InMemorySink, Tracer
from repro.rapidwright import ComponentDatabase, PreImplementedFlow
from repro.vivado import VivadoFlow


@pytest.fixture(scope="session", autouse=True)
def _runtime_sanitizer():
    """With ``REPRO_SANITIZE=1``, enforce the lint discipline dynamically:
    ambient-RNG reads from oracle-paired code raise immediately, and any
    unsynchronized write to registered shared state fails the session."""
    if not sanitize.enabled():
        yield
        return
    sanitize.reset()
    sanitize.install()
    try:
        yield
    finally:
        found = sanitize.violations()
        sanitize.uninstall()
        sanitize.reset()
    assert not found, f"unsynchronized shared-state writes: {found}"


@pytest.fixture(scope="session")
def tiny_device() -> Device:
    return Device.from_name("tiny")


@pytest.fixture(scope="session")
def small_device() -> Device:
    return Device.from_name("small")


@pytest.fixture(scope="session")
def big_device() -> Device:
    return Device.from_name("ku5p-like")


@pytest.fixture(scope="session")
def small_graph(small_device) -> RoutingGraph:
    return RoutingGraph(small_device)


@pytest.fixture(scope="session")
def tiny_graph(tiny_device) -> RoutingGraph:
    return RoutingGraph(tiny_device)


def make_tiny_cnn() -> DFG:
    """A 4-component CNN small enough for flow tests on the small part."""
    return DFG.sequential(
        "tinynet",
        [
            Input("input", shape=(1, 12, 12)),
            Conv2D("conv1", filters=2, kernel=3),
            MaxPool2D("pool1", size=2),
            ReLU("relu1"),
            Flatten("flatten"),
            Dense("fc1", units=4),
        ],
    )


@pytest.fixture
def tiny_cnn() -> DFG:
    return make_tiny_cnn()


def traced(run):
    """Call *run* under a fresh tracer; return its result and its spans."""
    sink = InMemorySink()
    with Tracer(sink).activate():
        result = run()
    return result, [e for e in sink.events if e["ph"] == "span"]


def stages_under_run(spans) -> list[str]:
    """Names of the spans directly under ``flow.run``, in start order,
    less the DRC sweeps (a flow's stage ledger should list exactly these)."""
    run = next(s for s in spans if s["name"] == "flow.run")
    children = sorted((s for s in spans if s["parent"] == run["id"]), key=lambda s: s["t0"])
    return [s["name"] for s in children if s["name"] != "drc.run"]


@pytest.fixture(scope="session")
def traced_lenet(small_device) -> dict:
    """LeNet on the small part, traced, as ``{flow: (result, spans)}``:
    the baseline flow, and the pre-implemented one with every DRC gate
    and pipelining to ``"auto"``, its library built under the same tracer
    before the run (so that no build span sits among the run's stages)."""
    net = lenet5()

    def preimpl():
        flow = PreImplementedFlow(small_device, component_effort="low", seed=0, drc="warn")
        database = ComponentDatabase(small_device)
        database.build(group_components(net, "layer"), effort="low", seed=0, jobs=1)
        return flow.run(net, database=database, pipeline_target_mhz="auto")

    return {
        "baseline": traced(lambda: VivadoFlow(small_device, effort="low", seed=0).run(net)),
        "preimpl": traced(preimpl),
    }
