"""The incremental ECO flow (repro.eco): engine, oracle, rules, service.

Deterministic end-to-end checks on flow-built and hand-built designs:
a layer swap through :class:`EcoEngine` must match the full
re-route/re-time oracle bit for bit, undo must restore the design
byte-identically (dict order included), failed deltas must leave no
trace, the ``ECO-*`` DRC rules must fire on exactly the sloppy states
they describe, and the CLI / serve surfaces must accept and verify the
same edits.  The randomized counterpart lives in
``tests/test_property_eco.py``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.cnn import get_model, group_components
from repro.drc import run_drc
from repro.eco import (
    CellSwap,
    DesignDelta,
    EcoEngine,
    EcoError,
    LayerReplace,
    NetRewire,
    PlacementNudge,
    affected_nets,
    apply_delta,
    delta_from_json,
    eco_reference,
    run_cts,
)
from repro.fabric import Device, RoutingGraph
from repro.netlist import Design
from repro.netlist.cell import Cell
from repro.netlist.checkpoint import design_from_dict, design_to_dict
from repro.netlist.net import Net
from repro.rapidwright import ComponentDatabase, PreImplementedFlow
from repro.route.pathfinder import Router
from repro.serve.runner import run_job
from repro.spec import JobSpec, SpecError
from tests.conftest import make_tiny_cnn

SMALL = Device.from_name("small")
GRAPH = RoutingGraph(SMALL)

TINY_ARCH = """\
network tinynet
input name=input channels=1 height=12 width=12
conv name=conv1 filters=2 kernel=3 stride=1 padding=valid
maxpool name=pool1 size=2 stride=2
relu name=relu1
flatten name=flatten
dense name=fc1 units=4
"""


def fired(report, rule_id):
    return rule_id in report.by_rule()


def report_key(r):
    return (r.period_ps, r.clock_overhead_ps, r.clock_insertion_ps,
            tuple(r.critical_path), r.n_paths)


def drc_key(report):
    if report is None:
        return None
    return [(v.rule_id, v.location.kind, v.location.name, v.message)
            for v in report.violations]


# -- flow-built designs: layer replacement --------------------------------


@pytest.fixture(scope="module")
def built():
    """Routed tinynet plus its database and flow (shared, treat as
    read-only; tests that mutate must deep-copy via the checkpoint codec)."""
    net = make_tiny_cnn()
    flow = PreImplementedFlow(SMALL, component_effort="low", seed=0)
    result = flow.run(net)
    components = group_components(net, "layer")
    return result.design, result.extras["database"], flow, components


def _copy(design: Design) -> Design:
    return design_from_dict(design_to_dict(design))


def _swap_delta(components, db, seed=3):
    comp = components[1]
    vdb = ComponentDatabase(SMALL)
    vdb.build([comp], rom_weights=True, effort="low", seed=seed)
    return DesignDelta(f"swap:{comp.name}", (LayerReplace(comp.name, vdb.get(comp.signature)),))


def test_layer_swap_matches_oracle_bit_for_bit(built):
    design, db, flow, components = built
    top = _copy(design)
    delta = _swap_delta(components, db)
    engine = EcoEngine(top, SMALL, graph=flow.graph, delays=flow.delays,
                       drc="warn", database=db)
    eco = engine.apply(delta)
    ref = eco_reference(design, delta, SMALL, graph=flow.graph,
                        delays=flow.delays, drc="warn", database=db)
    assert design_to_dict(top) == design_to_dict(ref.design)
    assert report_key(eco.before) == report_key(ref.before)
    assert report_key(eco.after) == report_key(ref.after)
    assert drc_key(eco.drc) == drc_key(ref.drc)
    assert eco.ripped == ref.ripped
    assert eco.route.routed == ref.route.routed == len(eco.ripped) == 2
    assert top.metadata["eco"]["delta"] == delta.name


def test_undo_restores_byte_identical(built):
    design, db, flow, components = built
    top = _copy(design)
    before_doc = design_to_dict(top)
    engine = EcoEngine(top, SMALL, graph=flow.graph, delays=flow.delays,
                       database=db)
    eco = engine.apply(_swap_delta(components, db))
    assert design_to_dict(top) != before_doc
    reverted = engine.undo()
    assert design_to_dict(top) == before_doc
    assert report_key(reverted) == report_key(eco.before)
    # reapplying after undo reproduces the first application exactly
    again = engine.apply(_swap_delta(components, db))
    assert report_key(again.after) == report_key(eco.after)
    assert again.ripped == eco.ripped
    with pytest.raises(EcoError, match="nothing to undo"):
        engine.undo()
        engine.undo()


def test_eco_composes_with_cts(built):
    design, db, flow, components = built
    top = _copy(design)
    run_cts(top, SMALL, delays=flow.delays)
    baseline = design_to_dict(top)
    engine = EcoEngine(top, SMALL, graph=flow.graph, delays=flow.delays,
                       database=db)
    delta = _swap_delta(components, db)
    eco = engine.apply(delta)
    assert eco.after.clock_insertion_ps > 0.0
    ref = eco_reference(design_from_dict(baseline), delta, SMALL,
                        graph=flow.graph, delays=flow.delays, database=db)
    assert design_to_dict(top) == design_to_dict(ref.design)
    assert report_key(eco.after) == report_key(ref.after)


def test_strict_drc_gate_rolls_back(built):
    design, db, flow, components = built
    top = _copy(design)
    # Poison the target's recorded anchor so relocation lands the variant
    # on occupied sites: strict DRC never even gets to run — the apply
    # itself fails — but either failure mode must leave no trace.
    comp = components[1]
    delta = DesignDelta(
        "bad", (LayerReplace(comp.name, db.get(comp.signature), anchor=(0, 0)),)
    )
    before_doc = design_to_dict(top)
    engine = EcoEngine(top, SMALL, graph=flow.graph, delays=flow.delays,
                       drc="strict", database=db)
    with pytest.raises(EcoError):
        engine.apply(delta)
    assert design_to_dict(top) == before_doc
    assert engine.history == []


def test_unknown_module_fails_atomically(built):
    design, db, flow, components = built
    top = _copy(design)
    before_doc = design_to_dict(top)
    delta = DesignDelta("nope", (LayerReplace("ghost", db.get(components[0].signature)),))
    with pytest.raises(EcoError):
        apply_delta(top, delta, SMALL)
    assert design_to_dict(top) == before_doc


# -- hand-built designs: swap / nudge / rewire ----------------------------


def _routed_chain() -> Design:
    d = Design("chain")
    for i, site in enumerate([(0, 0), (2, 1), (4, 2), (6, 3)]):
        d.add_cell(Cell(f"c{i}", "SLICE", seq=(i % 2 == 0), ffs=1, luts=2,
                        placement=site))
    d.add_net(Net("n01", driver="c0", sinks=["c1"]))
    d.add_net(Net("n12", driver="c1", sinks=["c2", "c3"]))
    d.add_net(Net("clk", driver=None, sinks=["c0", "c2"], is_clock=True))
    route = Router(SMALL, GRAPH).route(d)
    assert route.success
    return d


def test_affected_nets_scopes_the_ripup():
    d = _routed_chain()
    delta = DesignDelta("nudge", (PlacementNudge("c3", (7, 4)),))
    rec = apply_delta(d, delta, SMALL)
    # only nets touching c3 are invalidated; the clock is never ripped
    assert affected_nets(d, rec) == ["n12"]
    assert d.cells["c3"].placement == (7, 4)
    rec.undo.apply(d)
    assert d.cells["c3"].placement == (6, 3)


def test_multi_edit_delta_incremental_equals_reference():
    d = _routed_chain()
    pristine = design_to_dict(d)
    delta = DesignDelta("multi", (
        CellSwap("c1", luts=4, comb_depth=2),
        PlacementNudge("c3", (7, 4)),
        NetRewire("n12", sinks=("c2",)),
    ))
    eco = EcoEngine(d, SMALL, graph=GRAPH).apply(delta)
    ref = eco_reference(design_from_dict(pristine), delta, SMALL, graph=GRAPH)
    assert design_to_dict(d) == design_to_dict(ref.design)
    assert report_key(eco.after) == report_key(ref.after)
    assert d.cells["c1"].luts == 4 and d.nets["n12"].sinks == ["c2"]


def test_invalid_edits_raise_and_engines_agree():
    cases = [
        DesignDelta("ghost-swap", (CellSwap("ghost", luts=1),)),
        DesignDelta("off-fabric", (PlacementNudge("c0", (999, 999)),)),
        DesignDelta("occupied", (PlacementNudge("c0", (2, 1)),)),
        DesignDelta("clock-rewire", (NetRewire("clk", sinks=("c1",)),)),
        DesignDelta("ghost-net", (NetRewire("zzz", sinks=("c1",)),)),
    ]
    for delta in cases:
        d = _routed_chain()
        pristine = design_to_dict(d)
        with pytest.raises(EcoError) as inc_exc:
            EcoEngine(d, SMALL, graph=GRAPH).apply(delta)
        assert design_to_dict(d) == pristine, delta.name
        with pytest.raises(EcoError) as ref_exc:
            eco_reference(design_from_dict(pristine), delta, SMALL, graph=GRAPH)
        assert str(inc_exc.value) == str(ref_exc.value)


def test_delta_from_json_round_trip():
    data = {
        "name": "multi",
        "edits": [
            {"op": "swap", "cell": "c1", "luts": 4},
            {"op": "nudge", "cell": "c3", "site": [7, 4]},
            {"op": "rewire", "net": "n12", "sinks": ["c2"]},
        ],
    }
    delta = delta_from_json(data)
    assert delta.name == "multi"
    assert isinstance(delta.edits[0], CellSwap)
    assert delta.edits[1].site == (7, 4)
    assert delta.edits[2].sinks == ("c2",)
    with pytest.raises(EcoError):
        delta_from_json({"name": "x", "edits": [{"op": "unknown"}]})
    with pytest.raises(EcoError):
        delta_from_json({"name": "x", "edits": [
            {"op": "replace_layer", "module": "m"}]})  # no component supplied


def _edit(**fields) -> dict:
    return {"edits": [fields]}


@pytest.mark.parametrize("data, message", [
    pytest.param({"edits": 5}, r"'edits' must be a list", id="edits-int"),
    pytest.param(_edit(op="nudge", cell="c3", site=5), r"#0 \(nudge\): field 'site'",
                 id="site-int"),
    pytest.param(_edit(op="nudge", cell="c3", site=["a", "b"]), r"#0 \(nudge\): field 'site'",
                 id="site-strings"),
    pytest.param(_edit(op="nudge", cell="c3", site=[1]), r"#0 \(nudge\): field 'site'",
                 id="site-short"),
    pytest.param(_edit(op="rewire", net="n12", sinks=7), r"#0 \(rewire\): field 'sinks'",
                 id="sinks-int"),
    pytest.param(_edit(op="rewire", net="n12", sinks="abc"), r"#0 \(rewire\): field 'sinks'",
                 id="sinks-string"),
    pytest.param({"edits": [{"op": "swap", "cell": "c1"}, {"op": "swap", "cell": 3}]},
                 r"#1 \(swap\): field 'cell'", id="cell-int"),
    pytest.param(_edit(op="replace_layer", module="m", anchor=[1]),
                 r"#0 \(replace_layer\): field 'anchor'", id="anchor-short"),
    pytest.param(_edit(op="replace_layer", module="m", seed=-1),
                 r"#0 \(replace_layer\): field 'seed' must be a non-negative integer",
                 id="seed-negative"),
])
def test_delta_from_json_rejects_malformed_fields(data, message):
    """A malformed field is an EcoError naming the edit and the field —
    not a TypeError, an IndexError, or a delta that reads it wrongly."""
    built = []
    with pytest.raises(EcoError, match=message):
        delta_from_json(data, variant=lambda module, seed: built.append(module))
    assert not built  # every edit is checked before a variant is built


# -- the ECO-* DRC rules ---------------------------------------------------


def test_eco001_flags_dangling_ripup():
    d = _routed_chain()
    d.nets["n01"].routes = []  # sloppy rip: routes no longer track sinks
    report = run_drc(d, SMALL, categories=("eco",), gate="test")
    assert fired(report, "ECO-001")


def test_eco002_flags_stale_clock_sink():
    d = _routed_chain()
    d.nets["clk"].add_sink("c1")  # c1 is combinational, not a buffer
    report = run_drc(d, SMALL, categories=("eco",), gate="test")
    assert fired(report, "ECO-002")


def test_eco003_flags_unrouted_delta_net():
    d = _routed_chain()
    d.metadata["eco"] = {"delta": "x", "ripped": ["n01"], "serial": 1}
    report = run_drc(d, SMALL, categories=("eco",), gate="test")
    assert not fired(report, "ECO-003")  # n01 is routed: clean
    d.nets["n01"].clear_routes()
    report = run_drc(d, SMALL, categories=("eco",), gate="test")
    assert fired(report, "ECO-003")


def test_clean_design_has_no_eco_findings(built):
    design, _db, _flow, _components = built
    report = run_drc(design, SMALL, categories=("eco",), gate="test")
    assert report.is_clean()


# -- service surfaces: spec validation and the eco job kind ----------------


def test_jobspec_eco_validation():
    ok = JobSpec(architecture=TINY_ARCH, part="small", effort="low",
                 eco={"swap_layer": "conv1", "cts": True, "verify": True})
    assert ok.resolve_eco_layer().name == "comp0_conv1"
    assert JobSpec.from_json(ok.to_json()) == ok
    base = JobSpec(architecture=TINY_ARCH, part="small", effort="low")
    assert ok.content_key() != base.content_key()
    with pytest.raises(SpecError, match="preimpl"):
        JobSpec(model="lenet5", flow="baseline", eco={"swap_layer": "conv1"})
    with pytest.raises(SpecError, match="unknown eco fields"):
        JobSpec(model="lenet5", eco={"swap_layer": "conv1", "x": 1})
    with pytest.raises(SpecError, match="does not uniquely match"):
        JobSpec(model="lenet5", eco={"swap_layer": "conv"})  # ambiguous
    with pytest.raises(SpecError, match="swap_seed"):
        JobSpec(model="lenet5", eco={"swap_layer": "conv1", "swap_seed": True})
    swap = {"edits": [{"op": "replace_layer", "module": "relu1", "seed": 3}]}
    assert JobSpec(model="lenet5", eco={"delta": swap}).resolve_eco_layer("relu1").name == \
        "comp1_pool1"
    with pytest.raises(SpecError, match="exactly one of 'swap_layer' and 'delta'"):
        JobSpec(model="lenet5", eco={"swap_layer": "conv1", "delta": swap})
    with pytest.raises(SpecError, match="exactly one of 'swap_layer' and 'delta'"):
        JobSpec(model="lenet5", eco={"cts": True})
    with pytest.raises(SpecError, match=r"edit #0 \(replace_layer\): field 'seed'"):
        JobSpec(model="lenet5", eco={"delta": {"edits": [
            {"op": "replace_layer", "module": "conv1", "seed": "1"}]}})
    with pytest.raises(SpecError, match="eco.delta edit #1 module 'conv'"):
        JobSpec(model="lenet5", eco={"delta": {"edits": [
            {"op": "replace_layer", "module": "conv1"},
            {"op": "replace_layer", "module": "conv"}]}})


@pytest.mark.parametrize("fields", [
    {"pipeline": True},             # float(True) would read as a 1 MHz target
    {"pipeline": "nan"},
    {"pipeline": "inf"},
    {"pipeline": float("nan")},     # a JSON NaN
    {"stream_weights": "no"},       # truthy: would build with streamed weights
], ids=["pipeline-true", "pipeline-nan-str", "pipeline-inf-str", "pipeline-nan",
        "stream-weights-str"])
def test_jobspec_rejects_values_the_flow_would_misread(fields):
    with pytest.raises(SpecError):
        JobSpec.from_json({"model": "lenet5", **fields})


def test_serve_runs_verified_eco_job():
    spec = JobSpec(architecture=TINY_ARCH, part="small", effort="low",
                   drc="strict",
                   eco={"swap_layer": "conv1", "cts": True, "verify": True})
    doc, status = run_job(spec)
    assert status == "miss"
    eco = doc["eco"]
    assert eco["oracle"] == "bit-identical"
    assert eco["delta"].startswith("swap:comp0_conv1@seed")
    assert eco["ripped"] >= eco["rerouted"] >= 1
    assert eco["drc_violations"] == 0
    assert "drc_violations" not in doc  # with an eco, drc gates the edit, not the build
    assert eco["cts"]["buffers"] >= 1
    json.dumps(doc)  # the result document stays JSON-serializable


def test_serve_eco_verify_fails_on_differing_drc_findings(monkeypatch):
    import repro.eco
    from repro.drc import Location, Severity, Violation

    real = repro.eco.eco_reference

    def one_extra_violation(*args, **kwargs):
        ref = real(*args, **kwargs)
        ref.drc.violations.append(Violation(
            "ECO-001", Severity.WARNING, "planted", Location("net", "planted")))
        return ref

    monkeypatch.setattr(repro.eco, "eco_reference", one_extra_violation)
    spec = JobSpec(architecture=TINY_ARCH, part="small", effort="low", drc="warn",
                   eco={"swap_layer": "conv1", "verify": True})
    with pytest.raises(RuntimeError, match="eco verification failed"):
        run_job(spec)


def test_cli_eco_layer_swap_with_oracle_check(tmp_path):
    out = io.StringIO()
    code = main([
        "eco", "--model", "lenet5", "--part", "small", "--effort", "low",
        "--swap-layer", "conv2", "--verify", "--drc", "strict",
        "--sarif", str(tmp_path / "eco.sarif"),
    ], out=out)
    text = out.getvalue()
    assert code == 0, text
    assert "bit-identical" in text
    assert "ECO swap:comp2_conv2" in text
    sarif = json.loads((tmp_path / "eco.sarif").read_text())
    assert sarif["runs"]


@pytest.mark.parametrize("edit, message", [
    pytest.param({"op": "warp"}, "repro eco: edit #0: unknown op 'warp'", id="unknown-op"),
    pytest.param({"op": "nudge", "cell": "x", "site": [1]},
                 "repro eco: edit #0 (nudge): field 'site' must be a pair of integers",
                 id="malformed-site"),
    pytest.param({"op": "swap", "cell": "ghost", "luts": 2},
                 "ECO rejected (design rolled back): delta bad: unknown cell 'ghost'",
                 id="unknown-cell"),
])
def test_cli_bad_delta_is_one_line_not_a_traceback(tmp_path, capsys, edit, message):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps({"name": "bad", "edits": [edit]}))
    try:
        code = main(["eco", "--model", "lenet5", "--part", "small", "--effort", "low",
                     "--delta", str(path)])
    except SystemExit as exc:  # a malformed delta is a bad spec, found before the build
        code = exc.code
    captured = capsys.readouterr()
    said = [line for line in (captured.out + captured.err).splitlines()
            if not line.startswith("built ")]
    assert code == 2
    assert len(said) == 1 and said[0].startswith(message), said


def test_cli_delta_edits_on_one_module_get_their_own_variants(tmp_path, monkeypatch):
    applied = []
    real_apply = EcoEngine.apply

    def spy(self, delta):
        applied.append(delta)
        return real_apply(self, delta)

    monkeypatch.setattr(EcoEngine, "apply", spy)
    path = tmp_path / "delta.json"
    path.write_text(json.dumps({"name": "twice", "edits": [
        {"op": "replace_layer", "module": "conv2", "seed": 5},
        {"op": "replace_layer", "module": "conv2", "seed": 6},
    ]}))
    out = io.StringIO()
    code = main(["eco", "--model", "lenet5", "--part", "small", "--effort", "low",
                 "--delta", str(path)], out=out)
    assert code == 0, out.getvalue()

    (delta,) = applied
    comp = next(c for c in group_components(get_model("lenet5"), "layer")
                if c.name == "comp2_conv2")
    wanted = []
    for seed in (5, 6):
        vdb = ComponentDatabase(SMALL)
        vdb.build([comp], rom_weights=True, effort="low", seed=seed)
        wanted.append(design_to_dict(vdb.get(comp.signature)))
    assert wanted[0] != wanted[1]
    assert [design_to_dict(e.component) for e in delta.edits] == wanted
