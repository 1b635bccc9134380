"""Command-line interface."""

import io
from dataclasses import fields

import pytest

from repro.cli import build_parser, main
from repro.cnn import group_components, lenet5
from repro.netlist import encode_design
from repro.spec import CHOICES, JobSpec
from repro.synth import generate_component


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_info_lists_resources():
    code, text = _run(["info", "--part", "tiny"])
    assert code == 0
    assert "tiny" in text and "LUT" in text
    assert "I/O (discontinuity) columns" in text


def test_models_table_matches_catalog():
    code, text = _run(["models"])
    assert code == 0
    for name in ("lenet5", "lenet5_caffe", "vgg16"):
        assert name in text
    assert "15.5 G" in text  # VGG-16 MACs from Table I


def test_run_baseline_only_small_model():
    code, text = _run(["run", "--model", "lenet5", "--flow", "baseline", "--seed", "1"])
    assert code == 0
    assert "baseline" in text and "MHz" in text
    assert "preimpl" not in text


def test_run_both_flows_reports_productivity():
    code, text = _run(["run", "--model", "lenet5", "--flow", "both"])
    assert code == 0
    assert "offline component library" in text
    assert "productivity gain" in text


def test_explore_reports_trials():
    code, text = _run(["explore", "--component", "pool1", "--seeds", "2"])
    assert code == 0
    assert "best:" in text and "anchors" in text


@pytest.mark.parametrize("comp", group_components(lenet5(), "layer"), ids=lambda c: c.name)
def test_explore_component_tunes_the_librarys_component(monkeypatch, comp):
    """``explore --component <layer>`` sweeps the very component the LeNet-5
    library files: its trial design is the library build's, byte for byte."""
    import repro.rapidwright.explore as explore

    class Generated(Exception):
        pass

    def capture(design, *args, **kwargs):
        raise Generated(design)

    monkeypatch.setattr(explore, "preimplement", capture)
    with pytest.raises(Generated) as trial:
        main(["explore", "--component", comp.nodes[0], "--seeds", "1"], out=io.StringIO())
    (design,) = trial.value.args
    assert encode_design(design) == encode_design(generate_component(comp, rom_weights=True))


def test_floorplan_renders():
    code, text = _run(["floorplan", "--model", "lenet5", "--width", "60",
                       "--height", "12"])
    assert code == 0
    assert "comp0_conv1" in text
    assert "MHz stitched" in text


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--model", "alexnet"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_models_json_is_machine_readable():
    import json

    code, text = _run(["models", "--json"])
    assert code == 0
    doc = json.loads(text)
    names = {m["name"] for m in doc["models"]}
    assert {"lenet5", "lenet5_caffe", "vgg16"} <= names
    vgg = next(m for m in doc["models"] if m["name"] == "vgg16")
    assert vgg["conv_layers"] == 13 and vgg["fc_layers"] == 3
    assert vgg["total_macs"] > 15_000_000_000


def test_info_json_is_machine_readable():
    import json

    code, text = _run(["info", "--part", "tiny", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["name"] == "tiny"
    assert doc["columns"] > 0 and doc["rows"] > 0
    assert "LUT" in doc["resources"]
    assert isinstance(doc["io_columns"], list)


def test_serve_cli_submit_requires_discovery_or_url(tmp_path):
    with pytest.raises(SystemExit):
        _run(["submit", "--data-dir", str(tmp_path / "nope"), "--model", "lenet5"])


def test_serve_parsers_accept_expected_flags():
    parser = build_parser()
    args = parser.parse_args([
        "serve", "--data-dir", "d", "--port", "0", "--workers", "3",
        "--max-running", "4", "--max-queued", "9", "--rate", "2.5",
    ])
    assert args.port == 0 and args.workers == 3
    args = parser.parse_args([
        "submit", "--url", "http://127.0.0.1:1", "--model", "lenet5",
        "--part", "small", "--effort", "low", "--follow",
    ])
    assert args.follow is True
    args = parser.parse_args(["jobs", "--url", "http://x:1", "--state", "done"])
    assert args.state == "done"
    args = parser.parse_args(["result", "j000001", "--url", "http://x:1", "--wait"])
    assert args.job_id == "j000001" and args.wait is True


def test_lint_list_rules():
    code, text = _run(["lint", "--list-rules"])
    assert code == 0
    for rule_id in ("DET-001", "CONC-001", "ORC-001"):
        assert rule_id in text


def test_lint_fixture_tree_gates_and_emits_reports(tmp_path):
    bad = tmp_path / "src" / "repro" / "place"
    bad.mkdir(parents=True)
    (bad / "foo.py").write_text("import random\nx = random.random()\n")
    sarif = tmp_path / "lint.sarif"

    code, text = _run([
        "lint", "--root", str(tmp_path), "--mode", "strict",
        "--categories", "determinism", "--sarif", str(sarif),
    ])
    assert code == 2
    assert "DET-001" in text
    doc = __import__("json").loads(sarif.read_text())
    assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    code, _ = _run([
        "lint", "--root", str(tmp_path), "--mode", "warn",
        "--categories", "determinism",
    ])
    assert code == 0


def test_lint_repo_is_clean_through_the_cli():
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    code, text = _run([
        "lint", "--strict", "--root", str(repo),
        "--waivers", str(repo / "lint-waivers.toml"),
    ])
    assert code == 0, text


def _build_lib(lib, *options):
    return _run(["build", "--model", "lenet5", "--part", "small",
                 "--database-dir", str(lib), *options])


def test_build_database_dir_rebuilds_records_made_with_other_options(tmp_path):
    lib = tmp_path / "db"
    code, text = _build_lib(lib, "--effort", "low")
    assert code == 0 and "pre-implemented 6 components" in text
    assert "library: answered 0 of 6 components" in text
    code, text = _build_lib(lib, "--effort", "low")
    assert "library: answered 6 of 6 components" in text
    assert "pre-implemented 0 components" in text
    code, text = _build_lib(lib, "--effort", "high")
    assert code == 0 and "library: answered 0 of 6 components" in text
    assert "pre-implemented 6 components" in text
    # each options set has its own files: the low-effort ones stay
    assert len(list(lib.glob("*.dcpb"))) == 12
    for effort in ("high", "low"):
        code, text = _build_lib(lib, "--effort", effort)
        assert "pre-implemented 0 components" in text


def test_build_reports_a_torn_library_file_in_one_line(tmp_path, capsys):
    lib = tmp_path / "db"
    _build_lib(lib, "--effort", "low")
    before = {p.name: p.read_bytes() for p in lib.glob("*.dcpb")}
    torn = sorted(lib.glob("*.dcpb"))[0]
    torn.write_bytes(before[torn.name][: len(before[torn.name]) // 2])
    capsys.readouterr()
    code, text = _build_lib(lib, "--effort", "low")
    err = capsys.readouterr().err
    assert code == 0
    assert err.count("\n") == 1 and err.startswith("library file rejected: ")
    assert torn.name in err
    assert "library: answered 5 of 6 components" in text
    assert "pre-implemented 1 components" in text
    # rebuilt and replaced, byte for byte
    assert {p.name: p.read_bytes() for p in lib.glob("*.dcpb")} == before


# -- one front end: the CLI declares, validates and describes a job as serve does --


SPEC_DEFAULTS = {f.name: f.default for f in fields(JobSpec)}
#: The CLI's documented departures from JobSpec's defaults.
CLI_DEFAULTS = {("run", "flow"): "both", ("eco", "drc"): "warn"}
#: The verbs that build, and the JobSpec fields each takes as flags.
SPEC_VERBS = {
    "run": ("model", "part", "flow", "granularity", "stream_weights", "pipeline", "drc",
            "seed"),
    "drc": ("model", "part", "granularity", "seed"),
    "build": ("model", "part", "granularity", "effort", "stream_weights", "seed"),
    "eco": ("model", "part", "granularity", "effort", "drc", "seed"),
    "floorplan": ("model", "part", "granularity", "seed"),
    "submit": ("model", "part", "flow", "granularity", "stream_weights", "pipeline",
               "effort", "drc", "seed", "tenant"),
}


@pytest.mark.parametrize(("argv", "message"), [
    pytest.param(["submit", "--url", "http://127.0.0.1:9", "--pipeline", "fast"],
                 "pipeline must be null, 'auto', or a frequency in MHz, got 'fast'",
                 id="submit-pipeline-word"),
    pytest.param(["build", "--part", "small", "--effort", "bogus"],
                 "unknown effort 'bogus'; known: ['low', 'medium', 'high']", id="build-effort"),
    pytest.param(["run", "--drc", "loud"],
                 "unknown drc mode 'loud'; known: ['off', 'warn', 'strict']", id="run-drc"),
    pytest.param(["drc", "--model", "alexnet"],
                 "unknown model 'alexnet'; known: ['lenet5', 'lenet5_caffe', 'vgg16']",
                 id="drc-model"),
    pytest.param(["eco", "--granularity", "row", "--swap-layer", "conv2"],
                 "unknown granularity 'row'; known: ['layer', 'block']", id="eco-granularity"),
    pytest.param(["floorplan", "--part", "huge"],
                 "unknown part 'huge'; known: ['ku5p-like', 'small', 'tiny']",
                 id="floorplan-part"),
    pytest.param(["submit", "--url", "http://127.0.0.1:9", "--pipeline", "-5"],
                 "pipeline frequency must be positive, got -5.0", id="submit-pipeline-negative"),
    pytest.param(["submit", "--url", "http://127.0.0.1:9", "--tenant", ""],
                 "tenant must be a non-empty string", id="submit-tenant"),
])
def test_a_bad_spec_field_is_one_line_and_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv, out=io.StringIO())
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.err == f"repro {argv[0]}: {message}\n"
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize(("argv", "names"), [
    pytest.param(["explore", "--seeds", "0"], "--seeds", id="explore-seeds-zero"),
    pytest.param(["explore", "--seeds", "-2"], "--seeds", id="explore-seeds-negative"),
    pytest.param(["explore", "--component", "conv"], "conv1, pool1, conv2",
                 id="explore-ambiguous-component"),
    pytest.param(["floorplan", "--width", "0"], "--width", id="floorplan-width-zero"),
    pytest.param(["floorplan", "--height", "-3"], "--height", id="floorplan-height-negative"),
    pytest.param(["drc", "--checkpoint", "{missing}"], "missing.dcpb", id="drc-missing-checkpoint"),
    pytest.param(["trace-report", "{missing}"], "missing.dcpb", id="trace-report-missing-file"),
    pytest.param(["submit", "--url", "http://127.0.0.1:9", "--arch-file", "{missing}"],
                 "missing.dcpb", id="submit-missing-arch-file"),
    pytest.param(["eco", "--part", "small", "--effort", "low", "--delta", "{missing}"],
                 "missing.dcpb", id="eco-missing-delta"),
    pytest.param(["eco", "--part", "small", "--effort", "low", "--swap-layer", "relu9"],
                 "eco.swap_layer 'relu9' does not uniquely match a component",
                 id="eco-unknown-layer"),
    pytest.param(["eco", "--swap-layer", "conv2", "--delta", "{delta}"],
                 "eco takes exactly one of 'swap_layer' and 'delta'", id="eco-swap-and-delta"),
    pytest.param(["eco", "--cts"], "eco takes exactly one of 'swap_layer' and 'delta'",
                 id="eco-neither"),
    pytest.param(["eco", "--delta", "{bad_delta}"],
                 "repro eco: edit #0 (nudge): field 'site' must be a pair of integers",
                 id="eco-malformed-delta"),
    pytest.param(["run", "--model", "lenet5", "--part", "small", "--seed", "-1"],
                 "seed must be a non-negative integer, got -1", id="run-seed-negative"),
    pytest.param(["eco", "--swap-layer", "conv2", "--swap-seed", "-1"],
                 "eco.swap_seed must be a non-negative integer, got -1",
                 id="eco-swap-seed-negative"),
    pytest.param(["eco", "--delta", "{negative_seed_delta}"],
                 "repro eco: edit #0 (replace_layer): field 'seed' must be a non-negative integer",
                 id="eco-delta-seed-negative"),
    pytest.param(["eco", "--swap-layer", "conv2", "--drc", "off", "--sarif", "{sarif}"],
                 "repro eco: --sarif writes the edit's DRC report, and --drc off makes none",
                 id="eco-sarif-without-drc"),
    pytest.param(["run", "--jobs", "0"], "--jobs", id="run-jobs-zero"),
    pytest.param(["drc", "--jobs", "-1"], "--jobs", id="drc-jobs-negative"),
    pytest.param(["build", "--jobs", "-3"], "--jobs", id="build-jobs-negative"),
    pytest.param(["eco", "--swap-layer", "conv2", "--jobs", "0"], "--jobs", id="eco-jobs-zero"),
    pytest.param(["explore", "--jobs", "0"], "--jobs", id="explore-jobs-zero"),
    pytest.param(["drc", "--part", "small", "--max-fanout", "-5"], "--max-fanout",
                 id="drc-max-fanout-negative"),
    pytest.param(["serve", "--workers", "0"], "--workers", id="serve-workers-zero"),
    pytest.param(["serve", "--max-running", "0"], "--max-running", id="serve-max-running-zero"),
    pytest.param(["serve", "--max-queued", "0"], "--max-queued", id="serve-max-queued-zero"),
    pytest.param(["serve", "--rate", "-1"], "--rate", id="serve-rate-negative"),
    pytest.param(["serve", "--rate", "inf"], "--rate", id="serve-rate-infinite"),
])
def test_bad_input_exits_2_with_one_message_line(tmp_path, capsys, monkeypatch, argv, names):
    import json

    import repro.cli
    import repro.serve

    def no_build(*args, **kwargs):
        raise AssertionError("a rejected request built a library")

    def no_server(*args, **kwargs):
        raise AssertionError("a rejected request started a server")

    monkeypatch.setattr(repro.cli, "compile_spec", no_build)
    monkeypatch.setattr(repro.serve, "ServeServer", no_server)
    (tmp_path / "delta.json").write_text(json.dumps(
        {"edits": [{"op": "replace_layer", "module": "conv2"}]}))
    (tmp_path / "bad.json").write_text(json.dumps(
        {"edits": [{"op": "nudge", "cell": "x", "site": [1]}]}))
    (tmp_path / "negative_seed.json").write_text(json.dumps(
        {"edits": [{"op": "replace_layer", "module": "conv2", "seed": -1}]}))
    argv = [arg.format(missing=tmp_path / "missing.dcpb", delta=tmp_path / "delta.json",
                       bad_delta=tmp_path / "bad.json",
                       negative_seed_delta=tmp_path / "negative_seed.json",
                       sarif=tmp_path / "x.sarif")
            for arg in argv]
    out = io.StringIO()
    try:
        code = main(argv, out=out)
    except SystemExit as exc:  # an argparse usage error, or a bad spec
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    # the message goes to stderr, and nothing to stdout: nothing was built
    assert out.getvalue() == "" and captured.out == ""
    lines = captured.err.splitlines()
    assert names in lines[-1]
    # one message line, or argparse's usage text and then its error line
    assert len(lines) == 1 or lines[-1].startswith(f"repro {argv[0]}: error: argument ")
    assert not (tmp_path / "x.sarif").exists()


#: The edit an ``eco`` request needs (``pool1`` is a layer of every stock
#: model), and the spec ``eco`` object its flags make.
ECO_ARGV = ["--swap-layer", "pool1"]
ECO_REQUEST = {"swap_layer": "pool1", "cts": False, "verify": False}


@pytest.mark.parametrize("verb", sorted(SPEC_VERBS))
def test_spec_flags_take_jobspecs_defaults_and_values(capsys, verb):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([verb, "--help"])
    help_text = capsys.readouterr().out
    edit = ECO_ARGV if verb == "eco" else []
    args = parser.parse_args([verb, *edit])
    for name in SPEC_VERBS[verb]:
        assert getattr(args, name) == CLI_DEFAULTS.get((verb, name), SPEC_DEFAULTS[name]), name
    if "jobs" in vars(args):
        assert args.jobs == 1  # documented: compile_spec's default is one worker per core
    expected = {name: getattr(args.spec, name) for name in SPEC_VERBS[verb]}
    if verb == "eco":
        expected["eco"] = ECO_REQUEST
    assert args.spec == JobSpec(**{**expected, "model": "lenet5"})
    for name in set(SPEC_VERBS[verb]) & set(CHOICES):
        flag = "--" + name.replace("_", "-")
        shown = CHOICES[name] + (("both",) if (verb, name) == ("run", "flow") else ())
        assert f"{flag} {{{','.join(shown)}}}" in help_text
        for value in CHOICES[name]:
            assert getattr(parser.parse_args([verb, *edit, flag, value]).spec, name) == value
        with pytest.raises(SystemExit):
            parser.parse_args([verb, *edit, flag, "bogus"])


def test_eco_flags_are_the_fields_of_the_specs_eco(tmp_path):
    import json

    parser = build_parser()
    args = parser.parse_args(["eco", "--swap-layer", "conv2", "--swap-seed", "4", "--cts",
                              "--verify"])
    assert args.spec.eco == {"swap_layer": "conv2", "swap_seed": 4, "cts": True,
                             "verify": True}
    document = {"name": "conv2", "edits": [{"op": "replace_layer", "module": "conv2"}]}
    (tmp_path / "delta.json").write_text(json.dumps(document))
    args = parser.parse_args(["eco", "--delta", str(tmp_path / "delta.json")])
    assert args.spec.eco == {"delta": document, "cts": False, "verify": False}


@pytest.mark.parametrize("name", sorted(CHOICES))
def test_choices_are_exactly_what_jobspec_accepts(name):
    from repro.spec import SpecError

    for value in CHOICES[name]:
        JobSpec(**{"model": "lenet5", name: value})
    with pytest.raises(SpecError):
        JobSpec(**{"model": "lenet5", name: "bogus"})


def test_pipeline_takes_one_form_on_every_verb():
    parser = build_parser()
    for verb in ("run", "submit"):
        assert parser.parse_args([verb]).spec.pipeline is None
        assert parser.parse_args([verb, "--pipeline"]).spec.pipeline == "auto"
        assert parser.parse_args([verb, "--pipeline", "300"]).spec.pipeline == 300.0


def test_catalog_documents_are_the_services(tmp_path):
    import json
    from urllib.request import urlopen

    from repro.serve import ServeServer

    server = ServeServer(tmp_path / "data", port=0, workers=1).start()
    try:
        with urlopen(f"{server.url}/v1/models", timeout=30) as response:
            models = json.loads(response.read())
        with urlopen(f"{server.url}/v1/parts", timeout=30) as response:
            parts = json.loads(response.read())
    finally:
        server.stop()
    assert json.loads(_run(["models", "--json"])[1]) == models
    (small,) = [p for p in parts["parts"] if p["name"] == "small"]
    assert json.loads(_run(["info", "--part", "small", "--json"])[1]) == small


def test_cli_eco_and_serve_eco_job_report_the_same_edit_with_cts(monkeypatch):
    from repro.eco import EcoEngine
    from repro.serve.runner import run_job

    applied = []
    real_apply = EcoEngine.apply

    def spy(self, delta):
        applied.append(real_apply(self, delta))
        return applied[-1]

    monkeypatch.setattr(EcoEngine, "apply", spy)
    code, text = _run(["eco", "--model", "lenet5", "--part", "small", "--effort", "low",
                       "--swap-layer", "conv2", "--cts", "--verify"])
    assert code == 0, text
    (cli,) = applied
    assert cli.summary() in text.splitlines() and "bit-identical" in text
    doc, _ = run_job(JobSpec(model="lenet5", part="small", effort="low",
                             eco={"swap_layer": "conv2", "cts": True, "verify": True}))
    eco = doc["eco"]
    assert (cli.delta.name, len(cli.ripped), cli.route.routed) == (
        eco["delta"], eco["ripped"], eco["rerouted"])
    assert round(cli.before.fmax_mhz, 3) == eco["fmax_before_mhz"]
    assert round(cli.after.fmax_mhz, 3) == eco["fmax_after_mhz"]
    assert f"{eco['cts']['buffers']} buffers" in text


def test_eco_swap_layer_resolves_a_member_layer():
    """``relu1`` is fused into LeNet-5's ``comp1_pool1``: the swap replaces it."""
    code, text = _run(["eco", "--part", "small", "--effort", "low", "--swap-layer", "relu1"])
    assert code == 0, text
    assert "ECO swap:comp1_pool1@seed1:" in text


def test_explore_component_resolves_a_member_layer(monkeypatch):
    import repro.rapidwright

    class Explored(Exception):
        pass

    def capture(component, *args, **kwargs):
        raise Explored(component)

    monkeypatch.setattr(repro.rapidwright, "explore_component", capture)
    with pytest.raises(Explored) as explored:
        main(["explore", "--component", "relu1"], out=io.StringIO())
    assert explored.value.args[0].name == "comp1_pool1"


def test_drc_off_with_an_eco_means_no_edit_drc_in_cli_and_serve(monkeypatch):
    """With an ``eco``, ``drc`` gates the edit (the build runs ungated) in
    both front ends: ``off`` runs no DRC at all."""
    from repro.eco import EcoEngine
    from repro.serve.runner import run_job

    applied = []
    real_apply = EcoEngine.apply

    def spy(self, delta):
        applied.append(real_apply(self, delta))
        return applied[-1]

    monkeypatch.setattr(EcoEngine, "apply", spy)
    code, text = _run(["eco", "--part", "small", "--effort", "low", "--swap-layer", "conv2",
                       "--drc", "off"])
    assert code == 0, text
    doc, _ = run_job(JobSpec(model="lenet5", part="small", effort="low", drc="off",
                             eco={"swap_layer": "conv2"}))
    cli, serve = applied
    assert cli.drc is None and serve.drc is None
    assert not any(line.startswith("DRC ") for line in text.splitlines())
    assert doc["eco"]["drc_violations"] is None and "drc_violations" not in doc
