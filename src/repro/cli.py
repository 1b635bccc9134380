"""Command-line interface.

``python -m repro <command>`` drives the library without writing code:

* ``info [--part NAME]`` — describe a device part.
* ``models`` — list the stock networks and their Table-I workloads.
* ``run --model lenet5 [--flow both] [--granularity layer] ...`` — build
  an accelerator with the baseline and/or pre-implemented flow and print
  the comparison.
* ``build --model vgg16 --jobs 4 [--database-dir DIR]`` — pre-implement a
  model's component database through the parallel build engine, into
  an optional component library (a second run with the same
  ``--database-dir`` and options is answered from it).
* ``drc --model lenet5 [--mode strict] [--sarif out.sarif]`` — build the
  pre-implemented accelerator and sweep it (plus its component database)
  through the full design-rule registry; ``--checkpoint FILE.dcpb``
  checks a saved checkpoint instead.  Exit code 2 when an unwaived
  error-or-worse violation survives in strict mode.
* ``eco --swap-layer conv2 [--cts] [--verify]`` — build, then edit incrementally
  (``--delta FILE`` instead of ``--swap-layer`` for a JSON edit document).
* ``floorplan --model lenet5`` — stitch and render the ASCII floorplan.
* ``explore --component conv2`` — sweep the function-optimization space
  for one component of the LeNet-5 library, named by its layer.
* ``trace-report out.jsonl`` — per-span/per-metric summary of a trace
  written by ``run``/``build`` ``--trace``.
* ``serve --data-dir DIR --port 8177 --workers 4`` — run the compile
  service: an HTTP/JSON job server multiplexing many concurrent builds
  over one shared worker pool and component library, with a
  durable job journal (killed servers recover their queue on restart).
* ``submit --model lenet5 [--follow] [--wait]`` / ``jobs`` / ``result
  JOB_ID`` — client commands against a running server; the server URL
  comes from ``--url`` or ``<data-dir>/serve.json``.

The six verbs that build (``run``, ``drc``, ``build``, ``eco``,
``floorplan``, ``submit``) describe their job as the
:class:`repro.spec.JobSpec` the compile service takes: each spec flag is
declared once, in :data:`_SPEC_FLAGS`, and the parser turns a verb's
flags into its validated ``args.spec`` (a bad value: one line, exit 2);
``eco``'s edit flags are the fields of that spec's ``eco`` object.
``models --json`` and ``info --json`` print serve's ``/v1/models`` and
``/v1/parts`` documents.

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
import json
import os
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

# No repro path calls BLAS, so OpenBLAS's thread pool, which ``import
# numpy`` starts with a thread per core, is CPU a run pays for nothing.
# Set before the first import that reaches numpy (``repro.fabric``); a value
# the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Only what the argument parser itself needs (the model and part catalogs
# and the job spec) is imported here; every subcommand imports its own
# layers when it runs, so ``models``/``info``/``--help`` never load the
# router and ``run`` never loads the compile service, the linter or the
# ECO engine.
from .cnn import group_components, models_doc
from .fabric import Device, part_doc
from .reporting import MODES
from .spec import CHOICES, FIG6_EFFORT, JobSpec, compile_spec

__all__ = ["main", "build_parser"]

#: The network a build verb compiles when given no ``--model`` (nor ``--arch-file``).
_DEFAULT_MODEL = "lenet5"


def _pipeline_mhz(text: str) -> float | str:
    """``--pipeline MHZ`` as JobSpec takes it: a number as MHz, a word as
    given (JobSpec accepts only ``auto``)."""
    try:
        return float(text)
    except ValueError:
        return text


def _positive_int(text: str) -> int:
    """A count or size flag's value: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """A rate flag's value: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}") from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


#: Every flag that sets a JobSpec field, declared once.  Its default is the
#: spec's and its values are ``repro.spec.CHOICES``: JobSpec checks them
#: when the parser builds the verb's spec, not argparse.
_SPEC_FLAGS = {
    "model": {"help": f"stock network (default {_DEFAULT_MODEL})"},
    "part": {"help": "device part"},
    "flow": {"help": "implementation flow"},
    "granularity": {"help": "one component per layer or per block"},
    "stream_weights": {"action": "store_true",
                       "help": "stream coefficients from off-chip (VGG style)"},
    "pipeline": {"nargs": "?", "const": "auto", "type": _pipeline_mhz, "metavar": "MHZ",
                 "help": "phys-opt pipelining to MHZ; bare, to the slowest-component "
                         "bound (auto)"},
    "effort": {"help": "OOC placement effort preset"},
    "seed": {"type": int},
    "drc": {"help": "design-rule-check gates inside the pre-implemented flow, or for "
                    "eco of the edit (strict fails on error-or-worse violations)"},
    "tenant": {"help": "tenant whose quota the job counts against"},
}

#: The JobSpec fields each build verb takes as flags.
_VERB_FIELDS = {verb: names.split() for verb, names in {
    "run": "model part flow granularity stream_weights pipeline drc seed",
    "drc": "model part granularity seed",
    "build": "model part granularity effort stream_weights seed",
    "eco": "model part granularity effort drc seed",
    "floorplan": "model part granularity seed",
    "submit": "model part flow granularity stream_weights pipeline effort drc seed tenant",
}.items()}

_SPEC_DEFAULTS = {f.name: f.default for f in fields(JobSpec)}


def _job_spec(args) -> JobSpec:
    """The validated JobSpec a build verb's flags describe (``run --flow
    both``: its preimpl half)."""
    spec = {name: getattr(args, name) for name in _VERB_FIELDS[args.command]}
    if spec.get("flow") == "both":
        spec["flow"] = "preimpl"
    if getattr(args, "arch_file", None):
        spec["architecture"] = Path(args.arch_file).read_text()
    elif spec["model"] is None:
        spec["model"] = _DEFAULT_MODEL
    if args.command == "eco":  # its edit flags, the --delta file read into "delta"
        if args.sarif and spec["drc"] == "off":
            raise ValueError("--sarif writes the edit's DRC report, and --drc off makes none")
        delta = json.loads(Path(args.delta).read_text()) if args.delta else None
        spec["eco"] = {key: value for key, value in {
            "swap_layer": args.swap_layer, "delta": delta, "swap_seed": args.swap_seed,
            "cts": args.cts, "verify": args.verify}.items() if value is not None}
    return JobSpec(**spec)


class _Parser(argparse.ArgumentParser):
    """Parses a build verb's flags into its JobSpec too (``args.spec``), so a
    bad field exits 2 like a bad flag, in one line: ``repro <verb>: <why>``."""

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if args.command in _VERB_FIELDS:
            try:
                args.spec = _job_spec(args)
            except (ValueError, OSError) as exc:  # a bad field or JSON, an unreadable file
                self.exit(2, f"repro {args.command}: {exc}\n")
        return args, extras


def _add_report_options(sub_parser: argparse.ArgumentParser) -> None:
    """The waiver and report-file options of ``drc`` and ``lint``."""
    sub_parser.add_argument("--waivers", default=None, metavar="PATH",
                            help="TOML/JSON waiver file of reviewed exceptions")
    sub_parser.add_argument("--sarif", default=None, metavar="PATH",
                            help="write a SARIF 2.1 report here")
    sub_parser.add_argument("--json", default=None, metavar="PATH",
                            help="write the JSON report here")


def _load_waivers(args):
    from .reporting import WaiverSet

    return WaiverSet.load(args.waivers) if args.waivers else None


def _print_json(doc, out) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True), file=out)


def _emit_report(report, args, out) -> int:
    """Print a checker's table, write its ``--sarif`` / ``--json`` files,
    and return its exit code under ``--mode``."""
    print(report.table(), file=out)
    if args.sarif:
        Path(args.sarif).write_text(json.dumps(report.to_sarif(), indent=2))
        print(f"SARIF report written to {args.sarif}", file=out)
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_json(), indent=2))
        print(f"JSON report written to {args.json}", file=out)
    return report.exit_code(args.mode)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Layer-based pre-implemented flow for mapping CNNs on FPGA",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)

    def spec_verb(verb, help, **cli_defaults):
        """*verb*'s parser with its JobSpec flags declared from the table;
        *cli_defaults* are its documented departures from the spec's."""
        p = sub.add_parser(verb, help=help)
        for name in _VERB_FIELDS[verb]:
            default = cli_defaults.get(name, _SPEC_DEFAULTS[name])
            options = {"default": default, **_SPEC_FLAGS[name]}
            if name in CHOICES:
                known = CHOICES[name]
                if default is not None and default not in known:  # run --flow both
                    known = (*known, default)
                options["metavar"] = "{" + ",".join(known) + "}"
            p.add_argument("--" + name.replace("_", "-"), **options)
        return p

    p_info = sub.add_parser("info", help="describe a device part")
    p_info.add_argument("--part", default=_SPEC_DEFAULTS["part"], choices=CHOICES["part"])
    p_info.add_argument("--json", action="store_true",
                        help="machine-readable JSON instead of tables")

    p_models = sub.add_parser("models", help="list stock networks and workloads")
    p_models.add_argument("--json", action="store_true",
                          help="machine-readable JSON instead of tables")

    p_run = spec_verb("run", "build an accelerator", flow="both")

    p_drc = spec_verb("drc", "design-rule-check a built accelerator or a checkpoint")
    p_drc.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="check a saved .dcpb checkpoint instead of building "
                            "--model's accelerator")
    p_drc.add_argument("--mode", default="strict", choices=("warn", "strict"),
                       help="strict: exit 2 on unwaived error-or-worse findings")
    _add_report_options(p_drc)
    p_drc.add_argument("--max-fanout", type=_positive_int, default=None,
                       help="NET-006 fanout ceiling (default 64)")
    p_drc.add_argument("--require-routed", action="store_true",
                       help="escalate unrouted nets to errors when checking a "
                            "checkpoint (built models always require routes)")

    p_lint = sub.add_parser(
        "lint", help="determinism/concurrency static analysis of the source tree"
    )
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to scan (default: src/ and "
                             "tests/ under --root)")
    p_lint.add_argument("--root", default=".",
                        help="repo root findings are reported relative to")
    p_lint.add_argument("--mode", default="strict", choices=MODES,
                        help="strict: exit 2 on unwaived error-or-worse findings")
    p_lint.add_argument("--strict", dest="mode", action="store_const", const="strict",
                        help="alias for --mode strict")
    _add_report_options(p_lint)
    p_lint.add_argument("--categories", default=None, metavar="CAT[,CAT...]",
                        help="restrict to rule categories "
                             "(determinism, concurrency, oracle)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")

    p_build = spec_verb(
        "build", "pre-implement a component database (offline, parallel, into a library)"
    )
    p_build.add_argument("--database-dir", default=None,
                         help="component library: one <key>.dcpb per build; a warm "
                              "rerun is answered without re-implementing")
    p_build.add_argument("--telemetry", action="store_true",
                         help="print the per-task engine telemetry table")

    p_eco = spec_verb("eco", "apply a post-route ECO to a built accelerator", drc="warn")
    p_eco.add_argument("--swap-layer", default=None, metavar="MODULE",
                       help="replace this module instance with a freshly "
                            "re-implemented variant (a component, a member layer, "
                            "or a unique component-name substring)")
    p_eco.add_argument("--swap-seed", type=int, default=None,
                       help="seed for the variant builds (default: --seed + 1)")
    p_eco.add_argument("--delta", default=None, metavar="PATH",
                       help="JSON DesignDelta file (ops: swap, nudge, rewire, "
                            "replace_layer)")
    p_eco.add_argument("--cts", action="store_true",
                       help="run clock-tree synthesis before the edit")
    p_eco.add_argument("--verify", action="store_true",
                       help="replay the delta through the full re-route/re-time "
                            "oracle and assert bit-identity (exit 1 on mismatch)")
    p_eco.add_argument("--sarif", default=None, metavar="PATH",
                       help="write the post-ECO DRC report as SARIF 2.1")

    for p in (p_run, p_drc, p_build, p_eco):  # the verbs that build a library first
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for the offline database build (default "
                            "1, in-process; the Python API defaults to one per usable core)")
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record the flow's span/metric trace to PATH")
        p.add_argument("--trace-format", default="jsonl", choices=("jsonl", "chrome"),
                       help="jsonl (repro trace-report) or chrome (chrome://tracing)")

    p_fp = spec_verb("floorplan", "stitch and render the floorplan")
    p_fp.add_argument("--width", type=_positive_int, default=100)
    p_fp.add_argument("--height", type=_positive_int, default=30)

    p_ex = sub.add_parser("explore", help="function-optimization DSE")
    p_ex.add_argument("--component", default="conv2", metavar="LAYER",
                      help="the LeNet-5 library component to tune, by layer name "
                           "(default conv2)")
    p_ex.add_argument("--part", default=_SPEC_DEFAULTS["part"], choices=CHOICES["part"])
    p_ex.add_argument("--seeds", type=_positive_int, default=3)
    p_ex.add_argument("--anchor-weight", type=float, default=0.0)
    p_ex.add_argument("--jobs", type=_positive_int, default=1,
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
                       help="durable state: job journal, results, component library")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8177,
                       help="listen port (0 picks a free one; the chosen "
                            "port is written to <data-dir>/serve.json)")
    p_srv.add_argument("--workers", type=_positive_int, default=2,
                       help="concurrent build workers sharing one library")
    p_srv.add_argument("--max-running", type=_positive_int, default=2,
                       help="per-tenant concurrent build cap")
    p_srv.add_argument("--max-queued", type=_positive_int, default=32,
                       help="per-tenant queued-job cap (429 when full)")
    p_srv.add_argument("--rate", type=_positive_float, default=None,
                       help="per-tenant submit rate limit (jobs/s)")

    def _add_url(sp):
        sp.add_argument("--url", default=None,
                        help="server base URL (default: read "
                             "<data-dir>/serve.json)")
        sp.add_argument("--data-dir", default="serve-data",
                        help="data dir to discover the server URL from")

    p_sub = spec_verb("submit", "submit a build job to a running server")
    _add_url(p_sub)
    p_sub.add_argument("--arch-file", default=None, metavar="PATH",
                       help="inline architecture definition file instead of --model")
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

    doc = part_doc(args.part)
    if args.json:
        _print_json(doc, out)
        return 0
    print(Device.from_name(args.part).describe(), file=out)
    print(format_table(["resource", "total"], [list(kv) for kv in doc["resources"].items()]),
          file=out)
    print(f"I/O (discontinuity) columns: {', '.join(map(str, doc['io_columns']))}",
          file=out)
    return 0


def _cmd_models(args, out) -> int:
    from .analysis.report import format_table

    doc = models_doc()
    if args.json:
        _print_json(doc, out)
        return 0
    rows = [
        [m["name"], m["conv_layers"], m["fc_layers"],
         f"{m['total_weights'] / 1e6:.3g} M", f"{m['total_macs'] / 1e9:.3g} G"]
        for m in doc["models"]
    ]
    print(format_table(["model", "convs", "fcs", "weights", "MACs"], rows), file=out)
    return 0


def _cmd_run(args, out) -> int:
    from .analysis.report import format_table

    flows = FIG6_EFFORT if args.flow == "both" else (args.spec.flow,)
    results = {
        flow: compile_spec(replace(args.spec, flow=flow, effort=FIG6_EFFORT[flow]), jobs=args.jobs)
        for flow in flows
    }
    if "preimpl" in results:
        extras = results["preimpl"].extras
        print(f"offline component library: {extras['offline_s']:.2f} s "
              f"({len(extras['database'])} checkpoints)", file=out)
    rows = [
        [name, f"{res.fmax_mhz:.1f} MHz", f"{res.runtime_s:.2f} s"]
        for name, res in results.items()
    ]
    print(format_table(["flow", "Fmax", "compile"], rows,
                       title=f"{args.spec.network_name} on {args.spec.part}"), file=out)
    if len(results) == 2:
        from .analysis import compare_productivity

        report = compare_productivity(results["baseline"], results["preimpl"])
        print(report.summary(), file=out)
    return 0


def _cmd_build(args, out) -> int:
    from .rapidwright import ComponentDatabase

    spec = args.spec
    components = group_components(spec.dfg(), spec.granularity)
    database = ComponentDatabase(
        spec.device(), directory=Path(args.database_dir) if args.database_dir else None
    )
    with warnings.catch_warnings(record=True) as rejected:  # torn or foreign library files
        warnings.simplefilter("always", RuntimeWarning)
        report = database.build(
            components,
            rom_weights=not spec.stream_weights,
            effort=spec.effort,
            seed=spec.seed,
            jobs=args.jobs,
        )
    for warning in rejected:
        print(warning.message, file=sys.stderr)
    if report.tasks:
        if args.telemetry:
            print(report.telemetry(), file=out)
        print(f"engine: jobs={report.jobs}, wall {report.wall_s:.2f} s", file=out)
    if database.directory is not None:
        print(f"library: answered {len(database) - len(report.tasks)} of {len(database)} "
              f"components from {database.directory}", file=out)
    print(f"database: {len(database)} checkpoints "
          f"({len({c.signature for c in components})} unique signatures)", file=out)
    print(f"pre-implemented {len(report.tasks)} components, run {report.run_s:.3f} s",
          file=out)
    return 0


def _cmd_drc(args, out) -> int:
    from .drc import DEFAULT_MAX_FANOUT, run_drc

    spec = args.spec
    waivers = _load_waivers(args)
    max_fanout = args.max_fanout if args.max_fanout is not None else DEFAULT_MAX_FANOUT
    database = None
    if args.checkpoint:
        from .netlist import load_checkpoint

        try:
            design = load_checkpoint(args.checkpoint)
        except (OSError, ValueError) as exc:  # unreadable, CheckpointFormatError, torn
            print(f"checkpoint rejected: {exc}", file=sys.stderr)
            return 2
        require_routed = args.require_routed
        gate = f"checkpoint:{Path(args.checkpoint).name}"
    else:
        result = compile_spec(spec, jobs=args.jobs)
        design, database = result.design, result.extras["database"]
        require_routed = True
        gate = f"model:{spec.network_name}"
    report = run_drc(
        design,
        spec.device(),
        database=database,
        waivers=waivers,
        require_routed=require_routed,
        max_fanout=max_fanout,
        gate=gate,
    )
    return _emit_report(report, args, out)


def _cmd_lint(args, out) -> int:
    from .lint import all_lint_rules, run_lint

    if args.list_rules:
        for r in all_lint_rules():
            print(f"{r.id}  {str(r.severity):<8} {r.category:<12} {r.title}",
                  file=out)
        return 0
    categories = None
    if args.categories:
        categories = tuple(c.strip() for c in args.categories.split(",") if c.strip())
    report = run_lint(
        args.paths or None,
        root=args.root,
        categories=categories,
        waivers=_load_waivers(args),
    )
    return _emit_report(report, args, out)


def _cmd_eco(args, out) -> int:
    from .drc import DrcError
    from .eco import EcoError, run_eco

    spec = args.spec
    result = compile_spec(spec, jobs=args.jobs)
    print(f"built {spec.network_name}: {result.fmax_mhz:.1f} MHz "
          f"(offline {result.extras['offline_s']:.2f} s, "
          f"{len(result.extras['database'])} checkpoints)", file=out)
    try:
        trees, eco, identical = run_eco(result, spec)
    except (DrcError, EcoError) as exc:
        print(f"ECO rejected (design rolled back): {exc}", file=out)
        return 2
    for t in trees:
        print(f"CTS {t.clock}: {t.n_buffers} buffers, depth {t.depth}, "
              f"skew {t.skew_ps:.1f} ps, insertion {t.insertion_ps:.1f} ps", file=out)
    print(eco.summary(), file=out)
    if eco.drc is not None:
        print(eco.drc.summary(), file=out)
        if args.sarif:
            Path(args.sarif).write_text(json.dumps(eco.drc.to_sarif(), indent=2))
            print(f"SARIF report written to {args.sarif}", file=out)
    if spec.eco["verify"]:
        verdict = "bit-identical" if identical else "MISMATCH"
        print(f"oracle check (full re-route/re-time replay): {verdict}", file=out)
        if not identical:
            return 1
    return 0


def _cmd_floorplan(args, out) -> int:
    from .analysis import module_legend, render_floorplan

    result = compile_spec(args.spec, jobs=1)
    print(f"{args.spec.network_name}: {result.fmax_mhz:.1f} MHz stitched", file=out)
    print(render_floorplan(result.design, result.extras["flow"].device, width=args.width,
                           height=args.height), file=out)
    print(module_legend(result.design), file=out)
    return 0


def _cmd_explore(args, out) -> int:
    from .rapidwright import explore_component

    lenet = JobSpec(model="lenet5")
    component = lenet.resolve_eco_layer(args.component)
    if component is None:
        known = ", ".join(c.nodes[0] for c in group_components(lenet.dfg(), lenet.granularity))
        print(f"repro explore: {args.component!r} names no single LeNet-5 component; "
              f"known: {known}", file=sys.stderr)
        return 2
    result = explore_component(
        component, Device.from_name(args.part),
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

    try:
        events = load_events(args.path)
    except (OSError, ValueError) as exc:  # unreadable, or not a JSONL trace
        print(f"repro trace-report: {exc}", file=sys.stderr)
        return 2
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
    if args.url:
        return args.url
    discovery = Path(args.data_dir) / "serve.json"
    if discovery.exists():
        return json.loads(discovery.read_text())["url"]
    raise SystemExit(
        f"no --url given and {discovery} not found; is the server running?"
    )


def _cmd_submit(args, out) -> int:
    from .serve import ServeApiError, ServeClient

    client = ServeClient(_resolve_url(args))
    try:
        job = client.submit(args.spec.to_json())
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
        _print_json({"jobs": records}, out)
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
    _print_json(envelope, out)
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
