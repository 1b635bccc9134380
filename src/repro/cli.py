"""Command-line interface.

``python -m repro <command>`` drives the library without writing code:

* ``info [--part NAME]`` — describe a device part.
* ``models`` — list the stock networks and their Table-I workloads.
* ``run --model lenet5 [--flow both] [--granularity layer] ...`` — build
  an accelerator with the baseline and/or pre-implemented flow and print
  the comparison.
* ``build --model vgg16 --jobs 4 [--cache-dir DIR]`` — pre-implement a
  model's component database through the parallel build engine,
  with an optional persistent content-addressed build cache (a second
  run with the same ``--cache-dir`` is answered from cache).
* ``drc --model lenet5 [--mode strict] [--sarif out.sarif]`` — build the
  pre-implemented accelerator and sweep it (plus its component database)
  through the full design-rule registry; ``--checkpoint FILE.dcpb``
  checks a saved checkpoint instead.  Exit code 2 when an unwaived
  error-or-worse violation survives in strict mode.
* ``floorplan --model lenet5`` — stitch and render the ASCII floorplan.
* ``explore --component conv2`` — sweep the function-optimization space
  for one of the stock LeNet components.
* ``trace-report out.jsonl`` — per-span/per-metric summary of a trace
  written by ``run``/``build`` ``--trace``.
* ``serve --data-dir DIR --port 8177 --workers 4`` — run the compile
  service: an HTTP/JSON job server multiplexing many concurrent builds
  over one shared worker pool and content-addressed cache, with a
  durable job journal (killed servers recover their queue on restart).
* ``submit --model lenet5 [--follow] [--wait]`` / ``jobs`` / ``result
  JOB_ID`` — client commands against a running server; the server URL
  comes from ``--url`` or ``<data-dir>/serve.json``.

``models`` and ``info`` accept ``--json`` for machine-readable output
(the serve client and load generator enumerate networks/parts this way).

``run`` and ``build`` accept ``--trace PATH`` (plus ``--trace-format
{jsonl,chrome}``) to record the flow's span/metric trace: ``jsonl`` is
the native line-per-event format consumed by ``trace-report``; ``chrome``
writes a ``chrome://tracing``-loadable trace-event array.  For function
hot spots, run the command under ``python -m cProfile -o out.prof -m
repro run ...``.

All commands accept ``--seed`` and are fully deterministic — including
``build --jobs N``, whose parallel results are bit-identical to serial.
``--jobs`` defaults to 1 here, while the library's own default is one
worker per usable core: a LeNet-sized library gains nothing from a pool
(measured: equal wall, more CPU), and an in-process build keeps every
build-side call in this process, where call-counting wrappers see it.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path

# Only what the argument parser itself needs (the model and part
# catalogs) is imported here; every subcommand imports its own layers when
# it runs, so ``models``/``info``/``--help`` never load the router and
# ``run`` never loads the compile service, the linter or the ECO engine.
from .cnn import MODEL_CATALOG, get_model, group_components
from .fabric import Device, PART_CATALOG

__all__ = ["main", "build_parser"]

#: ``--jobs`` help of the commands that build a component library first.
_JOBS_HELP = ("worker processes for the offline database build (default 1, "
              "in-process; the Python API defaults to one per usable core)")


def _generate(generator: str, *args, **kwargs):
    """``repro.synth.<generator>(*args, **kwargs)``, importing the synthesizer
    only when a design is asked for."""
    from . import synth

    return getattr(synth, generator)(*args, **kwargs)


#: Stock LeNet components selectable by ``explore --component``; picklable
#: factories, so ``explore --jobs N`` evaluates trials in worker processes.
_EXPLORE_TARGETS = {
    "conv1": partial(_generate, "gen_conv", 1, 32, 32, 5, 6, rom_weights=True),
    "conv2": partial(_generate, "gen_conv", 6, 14, 14, 5, 16, rom_weights=True),
    "pool1": partial(_generate, "gen_pool", 6, 28, 28, 2, include_relu=True),
    "fc1": partial(_generate, "gen_fc", 400, 120, rom_weights=True),
}


def _add_trace_options(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record the flow's span/metric trace to PATH",
    )
    sub_parser.add_argument(
        "--trace-format", default="jsonl", choices=("jsonl", "chrome"),
        help="jsonl (repro trace-report) or chrome (chrome://tracing)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Layer-based pre-implemented flow for mapping CNNs on FPGA",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a device part")
    p_info.add_argument("--part", default="ku5p-like", choices=sorted(PART_CATALOG))
    p_info.add_argument("--json", action="store_true",
                        help="machine-readable JSON instead of tables")

    p_models = sub.add_parser("models", help="list stock networks and workloads")
    p_models.add_argument("--json", action="store_true",
                          help="machine-readable JSON instead of tables")

    p_run = sub.add_parser("run", help="build an accelerator")
    p_run.add_argument("--model", default="lenet5", choices=sorted(MODEL_CATALOG))
    p_run.add_argument("--part", default="ku5p-like", choices=sorted(PART_CATALOG))
    p_run.add_argument("--flow", default="both",
                       choices=("baseline", "preimpl", "both"))
    p_run.add_argument("--granularity", default="layer", choices=("layer", "block"))
    p_run.add_argument("--stream-weights", action="store_true",
                       help="stream coefficients from off-chip (VGG style)")
    p_run.add_argument("--pipeline", action="store_true",
                       help="phys-opt pipelining to the slowest-component bound")
    p_run.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p_run.add_argument("--drc", default="off", choices=("off", "warn", "strict"),
                       help="design-rule-check gates inside the pre-implemented "
                            "flow (strict raises on error-or-worse violations)")
    p_run.add_argument("--seed", type=int, default=0)
    _add_trace_options(p_run)

    p_drc = sub.add_parser(
        "drc", help="design-rule-check a built accelerator or a checkpoint"
    )
    p_drc.add_argument("--model", default="lenet5", choices=sorted(MODEL_CATALOG),
                       help="build this model's accelerator and check it "
                            "(ignored with --checkpoint)")
    p_drc.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="check a saved .dcpb checkpoint instead of building")
    p_drc.add_argument("--part", default="ku5p-like", choices=sorted(PART_CATALOG))
    p_drc.add_argument("--granularity", default="layer", choices=("layer", "block"))
    p_drc.add_argument("--mode", default="strict", choices=("warn", "strict"),
                       help="strict: exit 2 on unwaived error-or-worse findings")
    p_drc.add_argument("--waivers", default=None, metavar="PATH",
                       help="TOML/JSON waiver file of reviewed exceptions")
    p_drc.add_argument("--sarif", default=None, metavar="PATH",
                       help="write a SARIF 2.1 report here")
    p_drc.add_argument("--json", default=None, metavar="PATH",
                       help="write the JSON report here")
    p_drc.add_argument("--max-fanout", type=int, default=None,
                       help="NET-006 fanout ceiling (default 64)")
    p_drc.add_argument("--require-routed", action="store_true",
                       help="escalate unrouted nets to errors when checking a "
                            "checkpoint (built models always require routes)")
    p_drc.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p_drc.add_argument("--seed", type=int, default=0)
    _add_trace_options(p_drc)

    p_lint = sub.add_parser(
        "lint", help="determinism/concurrency static analysis of the source tree"
    )
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to scan (default: src/ and "
                             "tests/ under --root)")
    p_lint.add_argument("--root", default=".",
                        help="repo root findings are reported relative to")
    p_lint.add_argument("--mode", default="strict", choices=("off", "warn", "strict"),
                        help="strict: exit 2 on unwaived error-or-worse findings")
    p_lint.add_argument("--strict", dest="mode", action="store_const", const="strict",
                        help="alias for --mode strict")
    p_lint.add_argument("--waivers", default=None, metavar="PATH",
                        help="TOML/JSON waiver file of reviewed exceptions")
    p_lint.add_argument("--categories", default=None, metavar="CAT[,CAT...]",
                        help="restrict to rule categories "
                             "(determinism, concurrency, oracle)")
    p_lint.add_argument("--sarif", default=None, metavar="PATH",
                        help="write a SARIF 2.1 report here")
    p_lint.add_argument("--json", default=None, metavar="PATH",
                        help="write the JSON report here")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")

    p_build = sub.add_parser(
        "build", help="pre-implement a component database (offline, parallel, cached)"
    )
    p_build.add_argument("--model", default="lenet5", choices=sorted(MODEL_CATALOG))
    p_build.add_argument("--part", default="ku5p-like", choices=sorted(PART_CATALOG))
    p_build.add_argument("--granularity", default="layer", choices=("layer", "block"))
    p_build.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p_build.add_argument("--cache-dir", default=None,
                         help="persistent content-addressed build cache; a warm "
                              "rerun is answered without re-implementing")
    p_build.add_argument("--database-dir", default=None,
                         help="persist .dcpb checkpoints here (reloadable with "
                              "ComponentDatabase.load_directory)")
    p_build.add_argument("--effort", default="high",
                         help="OOC placement effort preset")
    p_build.add_argument("--stream-weights", action="store_true",
                         help="stream coefficients from off-chip (VGG style)")
    p_build.add_argument("--telemetry", action="store_true",
                         help="print the per-task engine telemetry table")
    p_build.add_argument("--seed", type=int, default=0)
    _add_trace_options(p_build)

    p_eco = sub.add_parser(
        "eco", help="apply a post-route ECO to a built accelerator"
    )
    p_eco.add_argument("--model", default="lenet5", choices=sorted(MODEL_CATALOG))
    p_eco.add_argument("--part", default="ku5p-like", choices=sorted(PART_CATALOG))
    p_eco.add_argument("--granularity", default="layer", choices=("layer", "block"))
    p_eco.add_argument("--effort", default="high",
                       help="OOC placement effort for components and variants")
    p_eco.add_argument("--swap-layer", default=None, metavar="MODULE",
                       help="replace this module instance with a freshly "
                            "re-implemented variant (unique name substring ok)")
    p_eco.add_argument("--swap-seed", type=int, default=None,
                       help="seed for the variant build (default: --seed + 1)")
    p_eco.add_argument("--delta", default=None, metavar="PATH",
                       help="JSON DesignDelta file (ops: swap, nudge, rewire, "
                            "replace_layer)")
    p_eco.add_argument("--cts", action="store_true",
                       help="run clock-tree synthesis before the edit")
    p_eco.add_argument("--cts-skew", type=float, default=None,
                       help="CTS skew bound in ps (default 100)")
    p_eco.add_argument("--drc", default="warn", choices=("off", "warn", "strict"),
                       help="post-ECO DRC gate (strict rolls back and exits 2)")
    p_eco.add_argument("--verify", action="store_true",
                       help="replay the delta through the full re-route/re-time "
                            "oracle and assert bit-identity (exit 1 on mismatch)")
    p_eco.add_argument("--sarif", default=None, metavar="PATH",
                       help="write the post-ECO DRC report as SARIF 2.1")
    p_eco.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p_eco.add_argument("--seed", type=int, default=0)
    _add_trace_options(p_eco)

    p_fp = sub.add_parser("floorplan", help="stitch and render the floorplan")
    p_fp.add_argument("--model", default="lenet5", choices=sorted(MODEL_CATALOG))
    p_fp.add_argument("--part", default="ku5p-like", choices=sorted(PART_CATALOG))
    p_fp.add_argument("--granularity", default="layer", choices=("layer", "block"))
    p_fp.add_argument("--width", type=int, default=100)
    p_fp.add_argument("--height", type=int, default=30)
    p_fp.add_argument("--seed", type=int, default=0)

    p_ex = sub.add_parser("explore", help="function-optimization DSE")
    p_ex.add_argument("--component", default="conv2", choices=sorted(_EXPLORE_TARGETS))
    p_ex.add_argument("--part", default="ku5p-like", choices=sorted(PART_CATALOG))
    p_ex.add_argument("--seeds", type=int, default=3)
    p_ex.add_argument("--anchor-weight", type=float, default=0.0)
    p_ex.add_argument("--jobs", type=int, default=1,
                      help="worker processes for independent trials")

    p_tr = sub.add_parser(
        "trace-report", help="summarize a JSONL trace written by --trace"
    )
    p_tr.add_argument("path", help="trace file (JSONL format)")
    p_tr.add_argument("--sort", default="total",
                      choices=("total", "self", "count", "name"),
                      help="span table ordering")

    p_srv = sub.add_parser(
        "serve", help="run the compile service (HTTP/JSON job server)"
    )
    p_srv.add_argument("--data-dir", default="serve-data",
                       help="durable state: job journal, results, shared cache")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8177,
                       help="listen port (0 picks a free one; the chosen "
                            "port is written to <data-dir>/serve.json)")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="concurrent build workers sharing one cache")
    p_srv.add_argument("--max-running", type=int, default=2,
                       help="per-tenant concurrent build cap")
    p_srv.add_argument("--max-queued", type=int, default=32,
                       help="per-tenant queued-job cap (429 when full)")
    p_srv.add_argument("--rate", type=float, default=None,
                       help="per-tenant submit rate limit (jobs/s)")
    p_srv.add_argument("--cache-entries", type=int, default=None,
                       help="in-memory LRU bound for the shared cache")

    def _add_url(sp):
        sp.add_argument("--url", default=None,
                        help="server base URL (default: read "
                             "<data-dir>/serve.json)")
        sp.add_argument("--data-dir", default="serve-data",
                        help="data dir to discover the server URL from")

    p_sub = sub.add_parser("submit", help="submit a build job to a running server")
    _add_url(p_sub)
    p_sub.add_argument("--model", default=None, choices=sorted(MODEL_CATALOG),
                       help="stock network to build")
    p_sub.add_argument("--arch-file", default=None, metavar="PATH",
                       help="inline architecture definition file instead of --model")
    p_sub.add_argument("--part", default="ku5p-like", choices=sorted(PART_CATALOG))
    p_sub.add_argument("--flow", default="preimpl", choices=("preimpl", "baseline"))
    p_sub.add_argument("--granularity", default="layer", choices=("layer", "block"))
    p_sub.add_argument("--stream-weights", action="store_true")
    p_sub.add_argument("--pipeline", default=None,
                       help="pipelining target MHz, or 'auto'")
    p_sub.add_argument("--effort", default="high", choices=("low", "medium", "high"))
    p_sub.add_argument("--drc", default="off", choices=("off", "warn", "strict"))
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument("--tenant", default="default")
    p_sub.add_argument("--follow", action="store_true",
                       help="stream per-stage progress events until done")
    p_sub.add_argument("--wait", action="store_true",
                       help="block until the job finishes and print the result")
    p_sub.add_argument("--timeout", type=float, default=600.0)

    p_jobs = sub.add_parser("jobs", help="list jobs on a running server")
    _add_url(p_jobs)
    p_jobs.add_argument("--tenant", default=None)
    p_jobs.add_argument("--state", default=None,
                        choices=("queued", "running", "done", "failed"))
    p_jobs.add_argument("--json", action="store_true")

    p_res = sub.add_parser("result", help="fetch a job's result document")
    _add_url(p_res)
    p_res.add_argument("job_id")
    p_res.add_argument("--wait", action="store_true",
                       help="block until the job finishes")
    p_res.add_argument("--timeout", type=float, default=600.0)
    return parser


def _cmd_info(args, out) -> int:
    from .analysis.report import format_table

    device = Device.from_name(args.part)
    if getattr(args, "json", False):
        import json as json_mod

        doc = {
            "name": device.name,
            "columns": device.ncols,
            "rows": device.nrows,
            "resources": {k: int(v) for k, v in sorted(device.resource_totals.items())},
            "io_columns": [int(c) for c in device.io_columns],
        }
        print(json_mod.dumps(doc, indent=2, sort_keys=True), file=out)
        return 0
    print(device.describe(), file=out)
    totals = device.resource_totals
    rows = [[k, v] for k, v in sorted(totals.items())]
    print(format_table(["resource", "total"], rows), file=out)
    io_positions = ", ".join(str(int(c)) for c in device.io_columns)
    print(f"I/O (discontinuity) columns: {io_positions}", file=out)
    return 0


def _cmd_models(args, out) -> int:
    from .analysis.report import format_table

    if getattr(args, "json", False):
        import json as json_mod

        models = []
        for name in sorted(MODEL_CATALOG):
            totals = get_model(name).totals()
            models.append({
                "name": name,
                "conv_layers": int(totals["conv_layers"]),
                "fc_layers": int(totals["fc_layers"]),
                "total_weights": int(totals["total_weights"]),
                "total_macs": int(totals["total_macs"]),
            })
        print(json_mod.dumps({"models": models}, indent=2, sort_keys=True), file=out)
        return 0
    rows = []
    for name in sorted(MODEL_CATALOG):
        totals = get_model(name).totals()
        rows.append([
            name,
            totals["conv_layers"],
            totals["fc_layers"],
            f"{totals['total_weights'] / 1e6:.3g} M",
            f"{totals['total_macs'] / 1e9:.3g} G",
        ])
    print(format_table(["model", "convs", "fcs", "weights", "MACs"], rows), file=out)
    return 0


def _cmd_run(args, out) -> int:
    from .analysis.report import format_table

    device = Device.from_name(args.part)
    net = get_model(args.model)
    rom = not args.stream_weights
    results = {}
    if args.flow in ("baseline", "both"):
        from .vivado import VivadoFlow

        results["baseline"] = VivadoFlow(device, effort="medium", seed=args.seed).run(
            net, granularity=args.granularity, rom_weights=rom
        )
    if args.flow in ("preimpl", "both"):
        from .rapidwright import PreImplementedFlow

        flow = PreImplementedFlow(device, component_effort="high", seed=args.seed,
                                  drc=getattr(args, "drc", "off"))
        db, offline = flow.build_database(net, granularity=args.granularity,
                                          rom_weights=rom, jobs=args.jobs)
        results["preimpl"] = flow.run(
            net, granularity=args.granularity, rom_weights=rom, database=db,
            pipeline_target_mhz="auto" if args.pipeline else None,
        )
        print(f"offline component library: {offline.total:.2f} s "
              f"({len(db)} checkpoints)", file=out)
    rows = [
        [name, f"{res.fmax_mhz:.1f} MHz", f"{res.runtime_s:.2f} s"]
        for name, res in results.items()
    ]
    print(format_table(["flow", "Fmax", "compile"], rows,
                       title=f"{args.model} on {args.part}"), file=out)
    if len(results) == 2:
        from .analysis import compare_productivity

        report = compare_productivity(results["baseline"], results["preimpl"])
        print(report.summary(), file=out)
    return 0


def _cmd_build(args, out) -> int:
    from .engine import BuildCache
    from .rapidwright import ComponentDatabase

    device = Device.from_name(args.part)
    net = get_model(args.model)
    components = group_components(net, args.granularity)
    database = ComponentDatabase(
        device, directory=Path(args.database_dir) if args.database_dir else None
    )
    if database.directory is not None:
        reloaded = database.load_directory()
        if reloaded:
            print(f"reloaded {reloaded} persisted checkpoints", file=out)
    cache = BuildCache(directory=args.cache_dir) if args.cache_dir else None
    timer = database.build(
        components,
        rom_weights=not args.stream_weights,
        effort=args.effort,
        seed=args.seed,
        jobs=args.jobs,
        cache=cache,
    )
    report = database.last_build_report
    if report is not None:
        if args.telemetry:
            print(report.telemetry(), file=out)
        print(f"engine: jobs={report.jobs}, wall {report.wall_s:.2f} s, "
              f"cache {report.hit_count} hit / {report.miss_count} miss", file=out)
    if cache is not None:
        print(f"cache: {cache.stats}", file=out)
    print(f"database: {len(database)} checkpoints "
          f"({len({c.signature for c in components})} unique signatures)", file=out)
    print(timer.report(), file=out)
    return 0


def _cmd_drc(args, out) -> int:
    import json as json_mod

    from .drc import DEFAULT_MAX_FANOUT, WaiverSet, run_drc
    from .rapidwright import PreImplementedFlow

    device = Device.from_name(args.part)
    waivers = WaiverSet.load(args.waivers) if args.waivers else None
    max_fanout = args.max_fanout if args.max_fanout is not None else DEFAULT_MAX_FANOUT
    database = None
    if args.checkpoint:
        from .netlist import load_checkpoint

        try:
            design = load_checkpoint(args.checkpoint)
        except ValueError as exc:  # CheckpointFormatError, or a torn image
            print(f"checkpoint rejected: {exc}", file=out)
            return 2
        require_routed = args.require_routed
        gate = f"checkpoint:{Path(args.checkpoint).name}"
    else:
        net = get_model(args.model)
        flow = PreImplementedFlow(device, component_effort="high", seed=args.seed)
        database, _ = flow.build_database(
            net, granularity=args.granularity, jobs=args.jobs
        )
        design = flow.run(
            net, granularity=args.granularity, database=database
        ).design
        require_routed = True
        gate = f"model:{args.model}"
    report = run_drc(
        design,
        device,
        database=database,
        waivers=waivers,
        require_routed=require_routed,
        max_fanout=max_fanout,
        gate=gate,
    )
    print(report.table(), file=out)
    if args.sarif:
        Path(args.sarif).write_text(json_mod.dumps(report.to_sarif(), indent=2))
        print(f"SARIF report written to {args.sarif}", file=out)
    if args.json:
        Path(args.json).write_text(json_mod.dumps(report.to_json(), indent=2))
        print(f"JSON report written to {args.json}", file=out)
    return report.exit_code(args.mode)


def _cmd_lint(args, out) -> int:
    import json as json_mod

    from .drc import WaiverSet
    from .lint import all_lint_rules, run_lint

    if args.list_rules:
        for r in all_lint_rules():
            print(f"{r.id}  {str(r.severity):<8} {r.category:<12} {r.title}",
                  file=out)
        return 0
    categories = None
    if args.categories:
        categories = tuple(c.strip() for c in args.categories.split(",") if c.strip())
    waivers = WaiverSet.load(args.waivers) if args.waivers else None
    report = run_lint(
        args.paths or None,
        root=args.root,
        categories=categories,
        waivers=waivers,
    )
    print(report.table(), file=out)
    if args.sarif:
        Path(args.sarif).write_text(json_mod.dumps(report.to_sarif(), indent=2))
        print(f"SARIF report written to {args.sarif}", file=out)
    if args.json:
        Path(args.json).write_text(json_mod.dumps(report.to_json(), indent=2))
        print(f"JSON report written to {args.json}", file=out)
    return report.exit_code(args.mode)


def _cmd_eco(args, out) -> int:
    import json as json_mod

    from .drc import DrcError
    from .eco import (
        DesignDelta,
        EcoEngine,
        LayerReplace,
        delta_from_json,
        eco_reference,
        matches_reference,
        run_cts,
    )
    from .netlist.checkpoint import design_from_dict, design_to_dict
    from .rapidwright import ComponentDatabase, PreImplementedFlow

    device = Device.from_name(args.part)
    net = get_model(args.model)
    flow = PreImplementedFlow(device, component_effort=args.effort, seed=args.seed)
    database, offline = flow.build_database(
        net, granularity=args.granularity, jobs=args.jobs
    )
    result = flow.run(net, granularity=args.granularity, database=database)
    top = result.design
    print(f"built {args.model}: {result.fmax_mhz:.1f} MHz "
          f"(offline {offline.total:.2f} s, {len(database)} checkpoints)", file=out)

    if args.cts:
        kwargs = {} if args.cts_skew is None else {"max_skew_ps": args.cts_skew}
        trees = run_cts(top, device, delays=flow.delays, **kwargs)
        for t in trees:
            print(f"CTS {t.clock}: {t.n_buffers} buffers, depth {t.depth}, "
                  f"skew {t.skew_ps:.1f} ps, insertion {t.insertion_ps:.1f} ps",
                  file=out)

    components = group_components(net, args.granularity)

    def resolve(name: str):
        matches = [c for c in components if c.name == name]
        if not matches:
            matches = [c for c in components if name in c.name]
        if len(matches) != 1:
            names = ", ".join(c.name for c in components)
            raise SystemExit(
                f"--swap-layer {name!r} matches {len(matches)} of: {names}"
            )
        return matches[0]

    def variant(comp, seed: int):
        vdb = ComponentDatabase(device)
        vdb.build([comp], effort=args.effort, seed=seed)
        return vdb.get(comp.signature)

    swap_seed = args.swap_seed if args.swap_seed is not None else args.seed + 1
    if args.delta:
        data = json_mod.loads(Path(args.delta).read_text())
        replacements = {}
        for edit in data.get("edits", []):
            if isinstance(edit, dict) and edit.get("op") == "replace_layer":
                comp = resolve(edit["module"])
                edit["module"] = comp.name
                replacements[comp.name] = variant(
                    comp, int(edit.pop("seed", swap_seed))
                )
        delta = delta_from_json(data, components=replacements)
    elif args.swap_layer:
        comp = resolve(args.swap_layer)
        delta = DesignDelta(
            f"swap:{comp.name}@seed{swap_seed}",
            (LayerReplace(comp.name, variant(comp, swap_seed)),),
        )
    else:
        raise SystemExit("eco needs --swap-layer or --delta")

    pre_doc = design_to_dict(top) if args.verify else None
    engine = EcoEngine(top, device, graph=flow.graph, delays=flow.delays,
                       drc=args.drc, database=database)
    try:
        eco = engine.apply(delta)
    except DrcError as exc:
        print(f"ECO rejected (design rolled back): {exc}", file=out)
        return 2
    print(eco.summary(), file=out)
    if eco.drc is not None:
        print(eco.drc.summary(), file=out)
        if args.sarif:
            Path(args.sarif).write_text(json_mod.dumps(eco.drc.to_sarif(), indent=2))
            print(f"SARIF report written to {args.sarif}", file=out)

    if args.verify:
        ref = eco_reference(
            design_from_dict(pre_doc), delta, device, graph=flow.graph,
            delays=flow.delays, drc=args.drc, database=database,
        )
        same = matches_reference(top, eco, ref)
        verdict = "bit-identical" if same else "MISMATCH"
        print(f"oracle check (full re-route/re-time replay): {verdict}", file=out)
        if not same:
            return 1
    return 0


def _cmd_floorplan(args, out) -> int:
    from .analysis import module_legend, render_floorplan
    from .rapidwright import PreImplementedFlow

    device = Device.from_name(args.part)
    net = get_model(args.model)
    flow = PreImplementedFlow(device, component_effort="high", seed=args.seed)
    result = flow.run(net, granularity=args.granularity, rom_weights=True, jobs=1)
    print(f"{args.model}: {result.fmax_mhz:.1f} MHz stitched", file=out)
    print(render_floorplan(result.design, device, width=args.width,
                           height=args.height), file=out)
    print(module_legend(result.design), file=out)
    return 0


def _cmd_explore(args, out) -> int:
    from .rapidwright import explore_component

    device = Device.from_name(args.part)
    factory = _EXPLORE_TARGETS[args.component]
    result = explore_component(
        factory, device,
        seeds=tuple(range(args.seeds)),
        slacks=(1.05, 1.4),
        anchor_weight=args.anchor_weight,
        jobs=args.jobs,
    )
    print(result.report(), file=out)
    best = result.best_trial
    print(f"best: {best.fmax_mhz:.1f} MHz, {best.anchors} anchors "
          f"(seed {best.seed}, slack {best.slack})", file=out)
    return 0


def _cmd_trace_report(args, out) -> int:
    from .obs import load_events, summarize

    events = load_events(args.path)
    print(summarize(events, sort=args.sort), file=out)
    return 0


def _cmd_serve(args, out) -> int:
    from .serve import ServeServer, TenantQuota

    quota = TenantQuota(
        max_running=args.max_running,
        max_queued=args.max_queued,
        rate=args.rate,
    )
    server = ServeServer(
        args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quota=quota,
        cache_entries=args.cache_entries,
    )
    server.start()
    recovered = len([r for r in server.store.jobs() if r.recovered])
    print(f"compile service listening on {server.url} "
          f"(data: {args.data_dir}, workers: {args.workers}"
          f"{f', recovered {recovered} jobs' if recovered else ''})", file=out)
    out.flush()
    try:
        server.serve_forever()
    finally:
        print("server stopped", file=out)
    return 0


def _resolve_url(args) -> str:
    """Server URL from ``--url`` or the data dir's discovery file."""
    import json as json_mod

    if args.url:
        return args.url
    discovery = Path(args.data_dir) / "serve.json"
    if discovery.exists():
        return json_mod.loads(discovery.read_text())["url"]
    raise SystemExit(
        f"no --url given and {discovery} not found; is the server running?"
    )


def _spec_from_args(args) -> dict:
    spec = {
        "tenant": args.tenant,
        "part": args.part,
        "flow": args.flow,
        "granularity": args.granularity,
        "stream_weights": args.stream_weights,
        "effort": args.effort,
        "seed": args.seed,
        "drc": args.drc,
    }
    if args.pipeline is not None:
        spec["pipeline"] = (
            args.pipeline if args.pipeline == "auto" else float(args.pipeline)
        )
    if args.arch_file:
        spec["architecture"] = Path(args.arch_file).read_text()
    else:
        spec["model"] = args.model or "lenet5"
    return spec


def _cmd_submit(args, out) -> int:
    from .serve import ServeApiError, ServeClient

    client = ServeClient(_resolve_url(args))
    try:
        job = client.submit(_spec_from_args(args))
    except ServeApiError as exc:
        print(f"submit rejected: {exc}", file=out)
        return 2
    print(f"submitted {job['id']} ({job['network']} on {job['part']}, "
          f"tenant {job['tenant']})", file=out)
    if args.follow:
        for event in client.stream_events(job["id"], timeout=args.timeout):
            if event["kind"] == "stage":
                detail = event.get("task") or event.get("model") or ""
                cache = f" [{event['cache']}]" if "cache" in event else ""
                print(f"  {event['stage']:<10s} {detail}{cache} "
                      f"({event['dur_s']:.3f} s)", file=out)
            else:
                print(f"  -> {event['state']}", file=out)
    if args.wait or args.follow:
        envelope = client.wait_result(job["id"], timeout=args.timeout)
        if envelope["state"] == "failed":
            print(f"job {job['id']} FAILED: {envelope['error']}", file=out)
            return 1
        result = envelope["result"]
        print(f"job {job['id']} done ({envelope['cache']}): "
              f"{result['fmax_mhz']:.1f} MHz, compile {result['runtime_s']:.2f} s, "
              f"wall {envelope['wall_s']:.2f} s", file=out)
    return 0


def _cmd_jobs(args, out) -> int:
    from .analysis.report import format_table
    from .serve import ServeClient

    client = ServeClient(_resolve_url(args))
    records = client.jobs(tenant=args.tenant, state=args.state)
    if args.json:
        import json as json_mod

        print(json_mod.dumps({"jobs": records}, indent=2, sort_keys=True), file=out)
        return 0
    rows = [
        [r["id"], r["tenant"], r["network"], r["part"], r["state"],
         r["cache"] or "-",
         f"{r['wall_s']:.2f}" if r["wall_s"] is not None else "-"]
        for r in records
    ]
    print(format_table(
        ["job", "tenant", "network", "part", "state", "cache", "wall s"], rows
    ), file=out)
    return 0


def _cmd_result(args, out) -> int:
    import json as json_mod

    from .serve import ServeApiError, ServeClient

    client = ServeClient(_resolve_url(args))
    try:
        if args.wait:
            envelope = client.wait_result(args.job_id, timeout=args.timeout)
        else:
            envelope = client.result(args.job_id)
    except ServeApiError as exc:
        print(str(exc), file=out)
        return 2
    print(json_mod.dumps(envelope, indent=2, sort_keys=True), file=out)
    return 0 if envelope.get("state") == "done" else 1


_COMMANDS = {
    "info": _cmd_info,
    "models": _cmd_models,
    "run": _cmd_run,
    "build": _cmd_build,
    "drc": _cmd_drc,
    "lint": _cmd_lint,
    "eco": _cmd_eco,
    "floorplan": _cmd_floorplan,
    "explore": _cmd_explore,
    "trace-report": _cmd_trace_report,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "result": _cmd_result,
}


def _run_command(args, out) -> int:
    """Run the parsed subcommand, under a span tracer when ``--trace`` asks."""
    command = _COMMANDS[args.command]
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return command(args, out)
    from .obs import ChromeTraceSink, JsonlSink, Tracer

    sink = (ChromeTraceSink(trace_path)
            if args.trace_format == "chrome"
            else JsonlSink(trace_path))
    tracer = Tracer(sink)
    try:
        with tracer.activate():
            return command(args, out)
    finally:
        tracer.finish()
        print(f"trace written to {trace_path} "
              f"({args.trace_format})", file=out)


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args, out)
    except BrokenPipeError:
        # stdout consumer went away (e.g. `repro trace-report ... | head`);
        # silence the interpreter's flush-on-exit complaint and exit clean.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
