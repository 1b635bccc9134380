"""The four end-to-end workloads: what is set up, what one op is, how it is checked.

Every workload compiles a fixed input with the flow's stochastic seed
pinned to :data:`FLOW_SEED`, the seed ``expected.json`` was committed
for.  Feeding the harness ``--seed`` to the flow instead would move
Fmax by ~10 % and compile time by ~8 % from run to run (placement and
the OOC library are seed-dependent), which is wider than any bound
worth gating on; see README.md, "Seeds".

``repro`` is imported inside :meth:`Workload.setup`, because the import
is part of what ``setup_s`` measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

__all__ = ["FLOW_SEED", "Context", "Observed", "WORKLOADS"]

FLOW_SEED = 0
HERE = Path(__file__).resolve().parent


@dataclass
class Context:
    """Where things are, plus the environment child processes get."""

    root: Path
    out: Path
    env: dict[str, str]
    expected: dict


@dataclass
class Observed:
    """What verification read off one op's output."""

    fmax_mhz: float
    fingerprint: str
    problems: list[str] = field(default_factory=list)


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, expected {want}")


def _check_floor(problems: list[str], fmax_mhz: float, want: dict) -> None:
    if not fmax_mhz >= want["fmax_floor_mhz"]:
        problems.append(f"fmax {fmax_mhz:.3f} MHz below floor {want['fmax_floor_mhz']}")


class Workload:
    """One closed-loop workload; subclasses fill in the four hooks."""

    name = ""
    #: False when the ops run in child processes (rusage comes from children).
    in_process = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.want = ctx.expected[self.name]
        #: Set-up phases, timed with outside timestamps (0 where there is none).
        self.phases = {"harness.import_s": 0.0, "fabric.Device.from_name.s": 0.0,
                       "rapidwright.build_database.s": 0.0,
                       "cli.interp_s": 0.0, "cli.import_s": 0.0}

    def setup(self) -> None:
        """Everything paid once before the first op (timed as ``setup_s``)."""

    def prepare(self):
        """Untimed per-op preparation; the return value is handed to :meth:`op`."""
        return None

    def op(self, state):
        """The timed operation."""
        raise NotImplementedError

    def check(self, state, result) -> Observed:
        """Verify one op's output (untimed)."""
        raise NotImplementedError

    def drc(self, state, result):
        """Full DRC sweep of one op's design; ``None`` when there is no design."""
        return None

    def traced_op(self, tracer, op_id: int, state):
        tracer.begin_op(op_id)
        try:
            return self.op(state)
        finally:
            tracer.end_op()

    def reuse_growth(self) -> float:
        """Resident-flow drift probe; 0 where no flow object could be reused."""
        return 0.0


class _VggWorkload(Workload):
    """Shared set-up of the in-process VGG-16 workloads (block granularity,
    streamed weights, the ``ku5p-like`` part — the paper's VGG configuration)."""

    def _import(self) -> None:
        t0 = perf_counter()
        import repro.cnn
        import repro.drc
        import repro.eco
        import repro.fabric
        import repro.netlist
        import repro.rapidwright
        import repro.vivado

        self.repro = repro
        t1 = perf_counter()
        self.device = repro.fabric.Device.from_name("ku5p-like")
        self.phases["harness.import_s"] = t1 - t0
        self.phases["fabric.Device.from_name.s"] = perf_counter() - t1

    def _build_database(self, effort: str):
        t0 = perf_counter()
        flow = self.repro.rapidwright.PreImplementedFlow(
            self.device, component_effort=effort, seed=FLOW_SEED
        )
        db, _timer = flow.build_database(
            self.repro.cnn.vgg16(), granularity="block", rom_weights=False
        )
        self.phases["rapidwright.build_database.s"] = perf_counter() - t0
        return flow, db

    def _check_design(self, design, route, fmax_mhz: float, blob: bytes) -> Observed:
        problems: list[str] = []
        if not route.success:
            problems.append(f"route failed: {route!r}")
        _expect(problems, "cells", len(design.cells), self.want["cells"])
        _expect(problems, "nets", len(design.nets), self.want["nets"])
        _check_floor(problems, fmax_mhz, self.want)
        return Observed(fmax_mhz, hashlib.sha256(blob).hexdigest(), problems)

    def _sweep(self, design):
        return self.repro.drc.run_drc(design, self.device, require_routed=True)

    # The two library workloads' op returns (FlowResult, encoded design).

    def check(self, state, result) -> Observed:
        flow_result, blob = result
        return self._check_design(
            flow_result.design, flow_result.route, flow_result.fmax_mhz, blob
        )

    def drc(self, state, result):
        return self._sweep(result[0].design)


class VggPreimplWarm(_VggWorkload):
    """The paper's online phase at VGG scale, from a built component library."""

    name = "vgg16_preimpl_warm"

    def setup(self) -> None:
        self._import()
        _flow, self.db = self._build_database("high")

    def _flow(self):
        return self.repro.rapidwright.PreImplementedFlow(
            self.device, component_effort="high", seed=FLOW_SEED
        )

    def _run(self, flow):
        return flow.run(
            self.repro.cnn.vgg16(), granularity="block", rom_weights=False,
            database=self.db, pipeline_target_mhz="auto",
        )

    def op(self, state):
        result = self._run(self._flow())
        return result, self.repro.netlist.encode_design(result.design)

    def reuse_growth(self) -> float:
        """Wall of the fifth ÷ first ``run()`` on ONE reused flow object (the
        timed ops never reuse one)."""
        flow = self._flow()
        walls = []
        for _ in range(5):
            t0 = perf_counter()
            self._run(flow)
            walls.append(perf_counter() - t0)
        return walls[-1] / walls[0]


class VggBaseline(_VggWorkload):
    """The monolithic comparator: synth, opt, place and route 33 k cells flat."""

    name = "vgg16_baseline"

    def setup(self) -> None:
        self._import()

    def op(self, state):
        result = self.repro.vivado.VivadoFlow(
            self.device, effort="medium", seed=FLOW_SEED
        ).run(self.repro.cnn.vgg16(), granularity="block", rom_weights=False)
        return result, self.repro.netlist.encode_design(result.design)


class VggEcoSwap(_VggWorkload):
    """Swap the middle conv for a re-seeded variant on a routed VGG, incrementally.

    Set-up follows ``bench_sta.py --scenario eco``: a low-effort library,
    one routed design, and a ``FLOW_SEED + 1`` variant of the middle conv.
    """

    name = "vgg16_eco_swap"

    def setup(self) -> None:
        self._import()
        r = self.repro
        flow, self.db = self._build_database("low")
        net = r.cnn.vgg16()
        routed = flow.run(net, granularity="block", rom_weights=False, database=self.db)
        self.doc = r.netlist.design_to_dict(routed.design)
        convs = [c for c in r.cnn.group_components(net, "block") if "conv" in c.name]
        self.comp = convs[len(convs) // 2]
        self.variants = r.rapidwright.ComponentDatabase(self.device)
        self.variants.build([self.comp], rom_weights=False, effort="low",
                            seed=FLOW_SEED + 1)

    def prepare(self):
        r = self.repro
        design = r.netlist.design_from_dict(self.doc)
        delta = r.eco.DesignDelta(
            f"swap:{self.comp.name}",
            (r.eco.LayerReplace(self.comp.name, self.variants.get(self.comp.signature)),),
        )
        engine = r.eco.EcoEngine(
            design, self.device, graph=r.fabric.RoutingGraph(self.device),
            seed=FLOW_SEED, drc="off", database=self.db,
        )
        # A long-lived edit session has paid the timing-graph compile when
        # the design was built; the swap rides the warm memo.
        engine.session.analyze()
        return engine, design, delta

    def op(self, state):
        engine, _design, delta = state
        return engine.apply(delta)

    def check(self, state, result) -> Observed:
        _engine, design, _delta = state
        blob = self.repro.netlist.encode_design(design)
        seen = self._check_design(design, result.route, result.after.fmax_mhz, blob)
        _expect(seen.problems, "ripped", len(result.ripped), self.want["ripped"])
        _expect(seen.problems, "rerouted", result.route.routed, self.want["rerouted"])
        return seen

    def drc(self, state, result):
        return self._sweep(state[1])


_FMAX_ROW = re.compile(r"^preimpl\s+([0-9.]+) MHz\s+[0-9.]+ s\s*$", re.MULTILINE)
_LIBRARY_ROW = re.compile(r"^offline component library: [0-9.]+ s \((\d+) checkpoints\)$",
                          re.MULTILINE)


class LenetCliCold(Workload):
    """What a CLI user pays: a fresh interpreter per op, nothing cached."""

    name = "lenet5_cli_cold"
    in_process = False
    argv = ("run", "--model", "lenet5", "--flow", "preimpl", "--seed", str(FLOW_SEED))

    def op(self, state):
        return subprocess.run(
            [sys.executable, "-m", "repro", *self.argv],
            env=self.ctx.env, cwd=self.ctx.root, capture_output=True, text=True,
            timeout=120,
        )

    def check(self, state, result) -> Observed:
        problems: list[str] = []
        if result.returncode != 0:
            problems.append(f"exit code {result.returncode}: {result.stderr[-500:]}")
        fmax = _FMAX_ROW.search(result.stdout)
        library = _LIBRARY_ROW.search(result.stdout)
        if fmax is None or library is None:
            problems.append(f"unparseable output: {result.stdout[-500:]!r}")
            return Observed(0.0, "", problems)
        fmax_mhz = float(fmax.group(1))
        _expect(problems, "checkpoints", int(library.group(1)), self.want["checkpoints"])
        _check_floor(problems, fmax_mhz, self.want)
        return Observed(fmax_mhz, f"{fmax.group(1)}/{library.group(1)}", problems)

    def traced_op(self, tracer, op_id: int, state):
        """Run the op through ``cli_driver.py``, which records spans inside the
        child; splice them under a root span covering the whole process."""
        trace_file = self.ctx.out / f"{self.name}.driver.{os.getpid()}.json"
        tracer.begin_op(op_id)
        try:
            result = subprocess.run(
                [sys.executable, str(HERE / "cli_driver.py"), str(trace_file), *self.argv],
                env=self.ctx.env, cwd=self.ctx.root, capture_output=True, text=True,
                timeout=120,
            )
        finally:
            root = len(tracer.spans) - 1
            tracer.end_op()
        try:
            doc = json.loads(trace_file.read_text())
        except (OSError, ValueError):
            return result  # check() reports the failed child
        trace_file.unlink()
        total: dict[str, float] = {}
        for span in tracer.absorb(doc, op_id, parent=root):
            total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        whole = tracer.spans[root]
        self.phases.update({
            # interpreter start and exit: the process minus what the driver saw
            "cli.interp_s": whole.end - whole.start - total["cli.process"],
            "cli.import_s": total["cli.import"],
            "harness.import_s": total["cli.import"],
            "fabric.Device.from_name.s": total.get("fabric.Device.from_name", 0.0),
            "rapidwright.build_database.s": total.get("rapidwright.build_database", 0.0),
        })
        return result


WORKLOADS = {w.name: w for w in (VggPreimplWarm, VggBaseline, LenetCliCold, VggEcoSwap)}
