"""Self-test of the e2e benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of tier-1 (``testpaths = tests``).  Checks the span arithmetic,
that the wrappers come off cleanly, that the harness refuses to time an
instrumented process, and — with a one-op run of the cheapest workload —
that the output carries exactly the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tracing import TARGETS, Span, Tracer, install, self_times, uninstall  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_harness(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_self_time_is_duration_minus_direct_children():
    #  op [0, 10] -> a [1, 6] -> b [2, 3], b [4, 5.5];  op -> c [6, 9]
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 6.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("b", 4.0, 5.5, 1, 0),
        Span("c", 6.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [2.0, 2.5, 1.0, 1.5, 3.0]
    assert sum(self_times(spans)) == 10.0  # self times partition the op

    tracer = Tracer()
    tracer.spans = spans
    rows = tracer.per_op()[0]
    assert rows["b"] == {"self_s": 2.5, "calls": 2}
    assert rows["op"] == {"self_s": 2.0, "calls": 1}


def test_reported_time_is_measured_time_over_the_slowdown_around_the_op():
    from run import HostProbe, Ledger

    host = HostProbe()
    host.units = [0.004, 0.005, 0.008]  # the machine at its best: 4 ms a unit
    ledger = Ledger(host)
    ledger.walls = [2.0, 3.0, 2.5]
    ledger.around = [[0.004, 0.004], [0.005, 0.007], [0.006, 0.004]]
    assert host.slowdown([0.005, 0.007]) == pytest.approx(1.5)
    # 2.0 / 1.0, 3.0 / 1.5, 2.5 / 1.25: an op on a slowed host reads as on a free one
    assert ledger.undisturbed(ledger.walls) == pytest.approx(2.0)

    assert host() >= min(host.units)  # a real probe: UNITS more units, their mean
    assert len(host.units) == 3 + HostProbe.UNITS and len(host.probes) == 1


def _repro_bindings() -> dict:
    """Identity of every attribute of every loaded ``repro`` module, and of
    every attribute of the classes the tracer patches."""
    seen = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in vars(mod).items():
                seen[name, attr] = id(value)
    for target in TARGETS:
        cls_name, _, _method = target.attr.rpartition(".")
        if cls_name:
            cls = getattr(sys.modules[target.module], cls_name)
            for attr, value in vars(cls).items():
                seen[target.module, cls_name, attr] = id(value)
    return seen


def test_install_then_uninstall_leaves_repro_untouched():
    import repro.cli  # pulls in every layer the targets name
    import repro.eco
    from repro.fabric import Device

    tracer = Tracer()
    uninstall(install(tracer))  # imports whatever was still missing
    before = _repro_bindings()
    original = repro.cnn.graph.group_components

    records = install(tracer)
    try:
        assert _repro_bindings() != before
        # Every module's own reference to an entry point is rebound, to one wrapper.
        assert repro.cli.group_components is not original
        assert repro.cli.group_components is repro.cnn.graph.group_components
        tracer.begin_op(0)
        Device.from_name("small")
        tracer.end_op()
    finally:
        uninstall(records)
    assert _repro_bindings() == before
    assert [s.name for s in tracer.spans] == ["harness.op", "fabric.Device.from_name"]

    Device.from_name("small")  # outside an op and uninstalled: nothing recorded
    assert len(tracer.spans) == 2


@pytest.mark.parametrize("var", ["REPRO_SANITIZE", "PYTHONTRACEMALLOC"])
def test_refuses_to_time_an_instrumented_process(var):
    done = run_harness("--workload", "lenet5_cli_cold", "--ops", "1",
                       env={**os.environ, var: "1"})
    assert done.returncode != 0
    assert "refusing" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_op_smoke_reports_exactly_the_named_metrics(tmp_path, trace, section):
    done = run_harness("--workload", "lenet5_cli_cold", "--seed", "7", "--ops", "1",
                       "--trace", trace, "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (4 if trace == "1" else 1)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    # The span file's self times partition each traced op's wall time.
    doc = json.loads((tmp_path / "lenet5_cli_cold.trace.json").read_text())
    spans = [Span(*row) for row in doc["spans"]]
    for op_id, wall in enumerate(doc["op_wall_s"]):
        self_s = sum(t for s, t in zip(spans, self_times(spans)) if s.op_id == op_id)
        assert self_s == pytest.approx(wall, rel=0.05)
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    assert layer["cli.interp_s"] > 0 and layer["cli.import_s"] > 0
    assert layer["place.place_design.calls"] == layer["rapidwright.preimplement.calls"] == 6
    assert layer["route.failed"] == 0


def test_benchmark_json_names_what_the_issue_names():
    assert SPEC["paths"] == ["benchmarks/e2e/"]
    # vgg16_eco_swap is in the harness but not gated: README.md, "Deviations".
    assert [w["name"] for w in SPEC["workloads"]] == [
        "vgg16_preimpl_warm", "vgg16_baseline", "lenet5_cli_cold"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert set(bounds) == {"compile_s", "cpu_s_per_op", "peak_rss_mb", "setup_s", "fmax_mhz"}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
