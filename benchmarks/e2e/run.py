"""End-to-end compile benchmark: one command for every workload.

    python3 benchmarks/e2e/run.py --workload <name|all> [--seed 0]
        [--seconds 25] [--trace [0|1]] [--ops N] [--out DIR]

Runs a closed loop of identical compile ops (one process, one thread)
for ``--seconds`` of wall time, verifies every op's output, and prints a
metric table followed by one JSON line.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` (times divided by the host
slow-down probed around them, see :class:`HostProbe`); ``--trace 1``
additionally runs :data:`TRACED_OPS` ops with the layer wrappers of
``tracing.py`` installed and reports the per-layer metrics instead.
README.md defines every metric and explains the harness rules.

The harness adds ``src/`` to ``sys.path`` itself and keeps everything
it writes (native-core cache, trace files) under ``.bench_build/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "e2e"

#: Fewer ops than this and the median is not worth reporting.
MIN_OPS = 5
TRACED_OPS = 3

#: Environment that would make the numbers mean something else.
_FORBIDDEN_ENV = ("REPRO_SANITIZE", "PYTHONPROFILEIMPORTTIME", "PYTHONTRACEMALLOC",
                  "PYTHONDEVMODE", "COVERAGE_PROCESS_START")

_PRIME_NATIVE = (
    "from repro.place.native import native_available as p;"
    "from repro.route.native import native_available as r;"
    "print(int(p()) + int(r()))"
)


def refuse_unmeasurable_environment() -> None:
    if not (SRC / "repro").is_dir():
        sys.exit(f"e2e benchmark: no program to measure at {SRC / 'repro'}")
    bad = [k for k in _FORBIDDEN_ENV if os.environ.get(k)]
    if bad or sys.gettrace() is not None or sys.getprofile() is not None:
        sys.exit(f"e2e benchmark: refusing to time under instrumentation "
                 f"({', '.join(bad) or 'sys.settrace/setprofile hook'})")


def child_env() -> dict[str, str]:
    """The environment of every process that runs ops, this one included."""
    env = dict(os.environ)
    # numpy madvise()s big arrays into transparent huge pages; what a THP fault
    # costs depends on the *host's* memory state (measured: 0.05-3.5 s of system
    # time per VGG op on one unchanged commit), so the ops run without it.
    env.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["XDG_CACHE_HOME"] = str(BUILD / "cache")  # repro's native-core .so cache
    return env


_PROBE_KEYS = [(i * 2654435761) & 0xFFFF for i in range(3000)]


def _probe_unit() -> int:
    """~5 ms of what the flows mostly do: integer arithmetic in a Python loop,
    then dict, tuple and list traffic and a sort."""
    x = 0
    for i in range(40_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    rows = {}
    for i, key in enumerate(_PROBE_KEYS):
        rows[key] = (i, key ^ 0x5BD1, [key])
    return x + sum(row[0] for row in sorted(rows.values(), key=lambda row: row[1])[::3])


class HostProbe:
    """How much slower than its own best the machine is running right now.

    The sandbox is a few cores of a shared host whose neighbours slow every
    workload by 10-60 % for minutes at a time, more than any bound this
    benchmark could gate on (README.md, "Host noise").  One probe times
    :attr:`UNITS` identical units of fixed work; the fastest unit of the
    whole run is the machine undisturbed, and the mean of the units taken just
    before and after an op, over that, is the op's slow-down."""

    UNITS = 8

    def __init__(self) -> None:
        self.units: list[float] = []
        self.probes: list[float] = []

    def __call__(self) -> float:
        t_unit = perf_counter()
        for _ in range(self.UNITS):
            _probe_unit()
            t_unit, t_prev = perf_counter(), t_unit
            self.units.append(t_unit - t_prev)
        self.probes.append(statistics.fmean(self.units[-self.UNITS:]))
        return self.probes[-1]

    def slowdown(self, probes: list[float]) -> float:
        return statistics.fmean(probes) / min(self.units)

    @property
    def spent(self) -> float:
        return sum(self.units)


def prime_native(env: dict[str, str]) -> tuple[int, float]:
    """Build (or find cached) the C cores in a throwaway process, so no timed
    region and no ``setup_s`` ever contains a ``cc`` run.  Returns the number
    of cores that loaded (0-2) and the seconds this took."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", _PRIME_NATIVE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"e2e benchmark: cannot import repro:\n{done.stderr[-2000:]}")
    return int(done.stdout.split()[-1]), perf_counter() - t0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def position_drift(walls: list[float]) -> float:
    """Median of the last third of the ops ÷ median of the first third."""
    k = math.ceil(len(walls) / 3)
    return statistics.median(walls[-k:]) / statistics.median(walls[:k])


class Ledger:
    """Ops attempted and failed, and what the good ones measured."""

    def __init__(self, host: HostProbe) -> None:
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.around: list[list[float]] = []  # each timed op's probes, before and after
        self.fmax: list[float] = []
        self.fingerprint: str | None = None

    def fail(self, op: int, why: str) -> None:
        self.failed += 1
        print(f"op {op} FAILED: {why}", file=sys.stderr)

    def run_op(self, wl, execute, *, timed: bool):
        """Prepare, probe, collect, execute, probe, verify.  Returns ``(state,
        result, wall)`` of a verified op (kept alive for the DRC sweep) or
        ``None``."""
        op = self.attempted
        self.attempted += 1
        try:
            state = wl.prepare()
            around = [self.host()]
            # Collect *between* ops, untimed, so every op starts from the same
            # heap; inside the op the collector runs at its default thresholds.
            gc.collect()
            cpu0, t0 = cpu_seconds(), perf_counter()
            result = execute(state)
            wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
            around.append(self.host())
            seen = wl.check(state, result)
        except Exception:  # an op that raises is a failed op, not a dead run
            self.fail(op, traceback.format_exc())
            return None
        if self.fingerprint is None:
            self.fingerprint = seen.fingerprint
        elif seen.fingerprint != self.fingerprint:
            seen.problems.append("output differs from the run's first op")
        if seen.problems:
            self.fail(op, "; ".join(seen.problems))
            return None
        self.fmax.append(seen.fmax_mhz)
        if timed:
            self.walls.append(wall)
            self.cpus.append(cpu)
            self.around.append(around)
        return state, result, wall

    def undisturbed(self, values: list[float]) -> float:
        """Median over the timed ops of *values* (their wall or CPU seconds),
        each divided by its op's slow-down."""
        return statistics.median(
            value / self.host.slowdown(around)
            for value, around in zip(values, self.around)
        )


def measure(wl, ledger: Ledger, seconds: float, ops: int | None):
    """The untraced closed loop: *ops* ops, or as many as fit in *seconds*.
    Returns the final op's ``(state, result)`` when it was good."""
    last = None
    t_loop = perf_counter()
    longest = 0.0
    while True:
        n = ledger.attempted
        if ops is not None:
            if n >= ops:
                break
        elif n >= MIN_OPS and perf_counter() - t_loop + longest > seconds:
            break
        last = None  # drop the previous op's result before the next op starts
        t_iter = perf_counter()
        done = ledger.run_op(wl, wl.op, timed=True)
        longest = max(longest, perf_counter() - t_iter)
        if done is not None:
            last = done[:2]
        del done
    return last


def trace_pass(wl, ledger: Ledger, out: Path) -> dict[str, float]:
    """TRACED_OPS more ops with the layer wrappers installed; returns every
    per-op layer value as the median over those ops."""
    from tracing import COUNT_NAMES, TARGETS, Tracer, install, uninstall

    tracer = Tracer()
    # In-process ops need the wrappers here; the CLI workload installs its own
    # inside each child (cli_driver.py).
    records = install(tracer) if wl.in_process else []
    walls = []
    try:
        for op_id in range(TRACED_OPS):
            done = ledger.run_op(
                wl, lambda state, op_id=op_id: wl.traced_op(tracer, op_id, state),
                timed=False,
            )
            if done is not None:
                walls.append(done[2])
            del done
    finally:
        uninstall(records)
    doc = tracer.to_json()
    doc["op_wall_s"] = walls
    (out / f"{wl.name}.trace.json").write_text(json.dumps(doc))

    per_op: list[dict[str, float]] = []
    for op_id, rows in tracer.per_op().items():
        values = dict(tracer.counts[op_id])
        for span, row in rows.items():
            values[f"{span}.self_s"] = row["self_s"]
            values[f"{span}.calls"] = row["calls"]
        looked_up = values.get("timing.sta.memo_hits", 0) + values.get(
            "timing.sta.memo_misses", 0)
        values["timing.sta.memo_hit_rate"] = (
            values["timing.sta.memo_hits"] / looked_up if looked_up else 0.0)
        values["harness.gc_pause_s"] = tracer.gc_pause_s[op_id]
        values["harness.gc_gen2_collections"] = tracer.gc_gen2[op_id]
        per_op.append(values)
    if not walls:
        sys.exit("e2e benchmark: every traced op failed")
    # A layer this workload never calls reports 0 time, calls and counts.
    names = {f"{t.span}{suffix}" for t in TARGETS for suffix in (".self_s", ".calls")}
    names.update(COUNT_NAMES, *per_op)
    layer = {
        name: statistics.median(values.get(name, 0) for values in per_op)
        for name in names
    }
    layer["harness.traced_wall_s"] = statistics.median(walls)
    return layer


def run_workload(spec: dict, args) -> dict:
    from workloads import WORKLOADS, Context

    env = child_env()
    os.environ.update(env)  # before repro (and numpy) are imported
    sys.path.insert(0, str(SRC))
    args.out.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=ROOT, out=args.out, env=env,
                  expected=json.loads((HERE / "expected.json").read_text()))

    native_cores, native_build_s = prime_native(env)
    if native_cores < 2:
        print(f"\n*** WARNING: only {native_cores}/2 native cores loaded (no cc, or "
              f"REPRO_NATIVE=0): VGG ops run ~10x slower; this is NOT a regression "
              f"of the commit under test ***\n", file=sys.stderr)

    # setup_s: everything between here and the first timed op, but the probes.
    host = HostProbe()
    during_setup = [host()]
    t_setup, probing = perf_counter(), host.spent
    wl = WORKLOADS[args.workload](ctx)
    wl.setup()
    warmup = Ledger(host)
    if warmup.run_op(wl, wl.op, timed=False) is None:
        sys.exit("e2e benchmark: the warm-up op failed")
    setup_raw_s = perf_counter() - t_setup - (host.spent - probing)
    during_setup += host.probes[1:]

    ledger = Ledger(host)
    ledger.fingerprint = warmup.fingerprint
    last = measure(wl, ledger, args.seconds, args.ops)
    if not ledger.walls:
        sys.exit("e2e benchmark: every op failed")
    rss_mb = peak_rss_mb(wl.in_process)  # before the sweep and the traced ops

    # One full DRC sweep per run, on the final design: verification, outside
    # every timed region and after the RSS reading.
    drc_s, violations = 0.0, 0
    t0 = perf_counter()
    report = wl.drc(*last) if last is not None else None
    if report is not None:
        drc_s, violations = perf_counter() - t0, len(report.violations)
        if not report.is_clean():
            ledger.fail(ledger.attempted - 1, report.summary())
    del last, report

    q1, median, q3 = quartiles(ledger.walls)
    drift = position_drift(ledger.walls)
    if args.trace:
        have = trace_pass(wl, ledger, args.out)
        have.update(wl.phases)
        have["rapidwright.flow.reuse_growth"] = wl.reuse_growth()
        have.update({
            "drc.run_drc.s": drc_s,
            "drc.violations": violations,
            "harness.calib_s": min(host.units),
            "harness.host_slowdown": host.slowdown(host.probes),
            "harness.trace_overhead_ratio": have["harness.traced_wall_s"] / median,
            "harness.compile_q1_s": q1,
            "harness.compile_median_s": median,
            "harness.compile_q3_s": q3,
            "harness.compile_max_s": max(ledger.walls),
            "harness.setup_raw_s": setup_raw_s,
            "harness.position_drift": drift,
            "harness.ops": len(ledger.walls),
            "harness.native_cores": native_cores,
            "harness.native_build_s": native_build_s,
        })
        wanted = spec["per_layer"]
    else:
        # Times are reported as the undisturbed machine would have taken them:
        # measured seconds over the slow-down the probes saw around them.
        have = {
            "compile_s": ledger.undisturbed(ledger.walls),
            "cpu_s_per_op": ledger.undisturbed(ledger.cpus),
            "peak_rss_mb": rss_mb,
            "setup_s": setup_raw_s / host.slowdown(during_setup),
            "fmax_mhz": statistics.median(ledger.fmax),
        }
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": have[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{wl.name}: seed {args.seed}, {len(ledger.walls)} timed ops, "
          f"{ledger.failed} of {ledger.attempted} ops failed "
          f"(failed_share {ledger.failed / ledger.attempted:.3f})")
    print(f"  measured op wall q1 {q1:.4f} / median {median:.4f} / q3 {q3:.4f} / "
          f"max {max(ledger.walls):.4f} s, set-up {setup_raw_s:.4f} s; position drift "
          f"{drift:.3f}; host slow-down {host.slowdown(host.probes):.3f} "
          f"(probe unit at best {min(host.units) * 1e3:.3f} ms)")
    print("  measured op walls (s): " + " ".join(f"{w:.4f}" for w in ledger.walls))
    print("  slow-down around each: " + " ".join(
        f"{host.slowdown(around):.3f}" for around in ledger.around))
    for metric, row in metrics.items():
        print(f"  {metric:<44} {row['value']:>14.6g} {row['unit']}")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def run_all(args, names: list[str]) -> dict:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(args.out)]
        if args.ops is not None:
            argv += ["--ops", str(args.ops)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.exit(f"e2e benchmark: workload {name} exited {done.returncode}")
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, row in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = row
    rows = combined["metrics"]
    if "vgg16_baseline/compile_s" in rows and "vgg16_preimpl_warm/compile_s" in rows:
        gain = 1 - (rows["vgg16_preimpl_warm/compile_s"]["value"]
                    / rows["vgg16_baseline/compile_s"]["value"])
        print(f"fig6_time_gain (informational, not gated): {gain:.3f}")
    return combined


def main(argv: list[str] | None = None) -> int:
    refuse_unmeasurable_environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    # "all" is the gated workloads of BENCHMARK.json; the harness also knows
    # vgg16_eco_swap, which the driver's time limit left no room to gate.
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded with the run; the compiled inputs are fixed "
                             "and the flow seed is pinned (README.md, 'Seeds')")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="wall budget of the untraced measuring loop")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: report the per-layer metrics")
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many untraced ops instead of --seconds")
    parser.add_argument("--out", type=Path, default=BUILD / "out",
                        help="directory for <workload>.trace.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args, names)
    else:
        result = run_workload(spec, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
