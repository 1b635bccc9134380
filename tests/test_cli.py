"""Command-line interface."""

import io
import pickle

import pytest

from repro.cli import build_parser, main


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


def test_explore_targets_pickle_and_build_the_stock_components():
    """``explore --jobs N`` ships its target to worker processes, so each
    target must survive pickling and still build its LeNet component."""
    from repro.cli import _EXPLORE_TARGETS
    from repro.netlist import encode_design
    from repro.synth import gen_conv, gen_fc, gen_pool

    expected = {
        "conv1": lambda: gen_conv(1, 32, 32, 5, 6, rom_weights=True),
        "conv2": lambda: gen_conv(6, 14, 14, 5, 16, rom_weights=True),
        "pool1": lambda: gen_pool(6, 28, 28, 2, include_relu=True),
        "fc1": lambda: gen_fc(400, 120, rom_weights=True),
    }
    assert set(_EXPLORE_TARGETS) == set(expected)
    for name, target in _EXPLORE_TARGETS.items():
        shipped = pickle.loads(pickle.dumps(target))
        assert encode_design(shipped()) == encode_design(expected[name]()), name


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
