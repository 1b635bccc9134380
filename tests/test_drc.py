"""The DRC subsystem: rules, waivers, reports, gates, CLI."""

import gzip
import json
import sys
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import Device, lenet5
from repro.drc import (
    DEFAULT_MAX_FANOUT,
    DrcError,
    Location,
    Severity,
    Violation,
    WaiverError,
    WaiverSet,
    all_rules,
    run_drc,
)
from repro.fabric import RoutingGraph, TileType
from repro.netlist import Cell, Design, DesignError, DesignImage, Net, Port, design_to_dict
from repro.netlist.stitch import prune_dangling_nets
from repro.rapidwright import ComponentDatabase, PreImplementedFlow
from repro.rapidwright.database import image_integrity


# -- helpers -----------------------------------------------------------------


def make_clean_design():
    """Two SLICEs and a DSP in a pipeline, with boundary ports + clock."""
    d = Design("clean")
    d.new_cell("a", "SLICE", seq=True)
    d.new_cell("b", "SLICE", seq=False)
    d.new_cell("m", "DSP48E2", seq=True)
    d.connect("inp", None, ["a"])
    d.connect("n1", "a", ["b"])
    d.connect("n2", "b", ["m"])
    d.connect("out", "m", [])
    d.connect("clk_net", None, ["a", "m"], is_clock=True)
    d.add_port(Port("in_data", "in", "inp"))
    d.add_port(Port("out_data", "out", "out"))
    d.add_port(Port("clk", "in", "clk_net", width=1))
    return d


def fired(report, rule_id):
    return rule_id in report.by_rule()


def test_clean_design_is_clean():
    report = run_drc(make_clean_design())
    assert report.is_clean()
    assert report.counts() == {"info": 0, "warning": 0, "error": 0, "fatal": 0}
    assert "clean" in report.summary()


def test_rule_registry_ids_and_categories():
    rules = all_rules()
    ids = [r.id for r in rules]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    for prefix in ("NET-", "CLK-", "PLC-", "RTE-", "DB-"):
        assert any(i.startswith(prefix) for i in ids), prefix


def test_unknown_rule_and_category_rejected():
    d = make_clean_design()
    with pytest.raises(KeyError, match="unknown DRC rule"):
        run_drc(d, rules=["NOPE-1"])
    with pytest.raises(ValueError, match="unknown DRC categories"):
        run_drc(d, categories=["nonsense"])


# -- netlist rules -----------------------------------------------------------


def test_net001_dangling_net():
    d = make_clean_design()
    d.connect("orphan", "a", [])
    report = run_drc(d)
    assert fired(report, "NET-001")
    # the out-port net has no sinks but is read by a port: not dangling
    assert all(v.location.name == "orphan"
               for v in report.violations if v.rule_id == "NET-001")


def test_net002_undriven_net_is_fatal():
    d = make_clean_design()
    d.connect("floaty", None, ["a"])
    report = run_drc(d)
    v = [v for v in report.violations if v.rule_id == "NET-002"]
    assert len(v) == 1 and v[0].severity is Severity.FATAL
    assert "no driver and no input port" in v[0].message


def test_net003_unknown_endpoints():
    d = make_clean_design()
    d.connect("bad1", "ghost", ["a"])
    d.connect("bad2", "a", ["phantom"])
    report = run_drc(d)
    msgs = [v.message for v in report.violations if v.rule_id == "NET-003"]
    assert any("unknown cell 'ghost'" in m for m in msgs)
    assert any("sinks unknown cell 'phantom'" in m for m in msgs)


def test_net004_multiply_driven():
    d = make_clean_design()
    d.add_port(Port("clash", "in", "n1"))  # n1 already driven by cell a
    report = run_drc(d)
    assert fired(report, "NET-004")
    d2 = make_clean_design()
    d2.add_port(Port("extra_in", "in", "inp"))  # two input ports, one net
    assert fired(run_drc(d2), "NET-004")


def test_net005_combinational_loop():
    d = make_clean_design()
    d.new_cell("x", "SLICE", seq=False)
    d.new_cell("y", "SLICE", seq=False)
    d.connect("lx", "x", ["y"])
    d.connect("ly", "y", ["x"])
    report = run_drc(d)
    v = [v for v in report.violations if v.rule_id == "NET-005"]
    assert len(v) == 1 and "x" in v[0].message and "y" in v[0].message
    # sequential cells break the cycle
    d.cells["y"].seq = True
    assert not fired(run_drc(d), "NET-005")


def test_net006_fanout_ceiling():
    d = make_clean_design()
    sinks = []
    for i in range(5):
        d.new_cell(f"s{i}", "SLICE")
        sinks.append(f"s{i}")
    d.connect("wide", "a", sinks)
    assert not fired(run_drc(d), "NET-006")  # default ceiling is generous
    report = run_drc(d, max_fanout=3)
    v = [v for v in report.violations if v.rule_id == "NET-006"]
    assert len(v) == 1 and "5 sinks" in v[0].message


def test_net007_floating_ports():
    d = make_clean_design()
    d.connect("deaf", None, [])
    d.add_port(Port("mute_in", "in", "deaf"))
    d.connect("silent", None, [])
    d.add_port(Port("silent_out", "out", "silent"))
    report = run_drc(d)
    names = {v.location.name for v in report.violations if v.rule_id == "NET-007"}
    assert {"mute_in", "silent_out"} <= names


def test_net008_port_unknown_net():
    d = make_clean_design()
    d.ports["in_data"].net = "vanished"
    report = run_drc(d)
    v = [v for v in report.violations if v.rule_id == "NET-008"]
    assert len(v) == 1 and v[0].severity is Severity.FATAL


def test_clk001_clock_driven_by_logic():
    d = make_clean_design()
    d.nets["clk_net"].driver = "b"
    assert fired(run_drc(d), "CLK-001")


def test_clk002_unclocked_sequential_cell():
    d = make_clean_design()
    d.nets["clk_net"].sinks = ["a"]  # m is sequential but unclocked now
    report = run_drc(d)
    v = [v for v in report.violations if v.rule_id == "CLK-002"]
    assert [x.location.name for x in v] == ["m"]
    # designs with no clock nets at all are exempt (mid-construction)
    d2 = make_clean_design()
    del d2.nets["clk_net"]
    del d2.ports["clk"]
    assert not fired(run_drc(d2), "CLK-002")


# -- placement rules ---------------------------------------------------------


def place_clean(d, device):
    clb = int(device.columns_of(TileType.CLB)[0])
    dsp = int(device.columns_of(TileType.DSP)[0])
    d.cells["a"].placement = (clb, 0)
    d.cells["b"].placement = (clb, 1)
    d.cells["m"].placement = (dsp, 0)


def test_placement_rules(tiny_device):
    d = make_clean_design()
    place_clean(d, tiny_device)
    assert run_drc(d, tiny_device).is_clean()

    d.cells["b"].placement = None
    assert fired(run_drc(d, tiny_device), "PLC-001")

    place_clean(d, tiny_device)
    d.cells["b"].placement = d.cells["a"].placement
    r = run_drc(d, tiny_device)
    assert fired(r, "PLC-002")
    assert any("double-booked" in v.message for v in r.violations)

    place_clean(d, tiny_device)
    d.cells["m"].placement = d.cells["a"].placement[:1] + (2,)
    assert fired(run_drc(d, tiny_device), "PLC-003")

    from repro.fabric import PBlock

    place_clean(d, tiny_device)
    d.pblock = PBlock(0, 0, tiny_device.ncols - 1, 0)  # row 1 escapes
    assert fired(run_drc(d, tiny_device), "PLC-004")
    d.pblock = None

    d.cells["a"].placement = (tiny_device.ncols + 7, 0)
    r = run_drc(d, tiny_device)
    assert fired(r, "PLC-005")
    assert not fired(r, "PLC-003")  # out-of-bounds is not also "wrong tile"


# -- routing rules -----------------------------------------------------------


def routed_pair(device):
    """Two SLICEs in one CLB column with a legal 3-node route between them."""
    d = Design("routed")
    clb = int(device.columns_of(TileType.CLB)[0])
    nrows = device.nrows
    d.new_cell("src", "SLICE", placement=(clb, 0))
    d.new_cell("dst", "SLICE", placement=(clb, 2))
    net = Net("wire", "src", ["dst"])
    base = clb * nrows
    net.routes = [[base, base + 1, base + 2]]
    d.add_net(net)
    d.connect("out", "dst", [])
    d.add_port(Port("out_data", "out", "out"))
    return d


def test_rte001_unrouted_escalates_with_require_routed(tiny_device):
    d = routed_pair(tiny_device)
    d.nets["wire"].routes = [None]
    soft = run_drc(d, tiny_device)
    v = [x for x in soft.violations if x.rule_id == "RTE-001"]
    assert len(v) == 1 and v[0].severity is Severity.INFO
    hard = run_drc(d, tiny_device, require_routed=True)
    v = [x for x in hard.violations if x.rule_id == "RTE-001"]
    assert len(v) == 1 and v[0].severity is Severity.ERROR
    assert not hard.is_clean()


def test_rte002_wire_overuse(tiny_device):
    d = routed_pair(tiny_device)
    d.nets["wire"].width = 10_000  # interior node charge >> any capacity
    report = run_drc(d, tiny_device)
    v = [x for x in report.violations if x.rule_id == "RTE-002"]
    assert len(v) == 1 and "wire overuse" in v[0].message
    assert v[0].location.kind == "site"
    d.nets["wire"].width = 1
    assert not fired(run_drc(d, tiny_device), "RTE-002")


def test_rte003_discontinuous_and_offgrid(tiny_device):
    d = routed_pair(tiny_device)
    clb = int(tiny_device.columns_of(TileType.CLB)[0])
    base = clb * tiny_device.nrows
    d.nets["wire"].routes = [[base, base + 2]]  # 2-tile hop: no such wire
    assert fired(run_drc(d, tiny_device), "RTE-003")
    d.nets["wire"].routes = [[base, 10 ** 9, base + 2]]
    r = run_drc(d, tiny_device)
    assert any(
        v.rule_id == "RTE-003" and "leaves the device" in v.message
        for v in r.violations
    )


def test_rte004_endpoint_mismatch(tiny_device):
    d = routed_pair(tiny_device)
    clb = int(tiny_device.columns_of(TileType.CLB)[0])
    base = clb * tiny_device.nrows
    d.nets["wire"].routes = [[base + 1, base + 2]]  # starts off the driver pin
    r = run_drc(d, tiny_device)
    v = [x for x in r.violations if x.rule_id == "RTE-004"]
    assert len(v) == 1 and "driver pin" in v[0].message
    # routed but unplaced endpoint
    d2 = routed_pair(tiny_device)
    d2.cells["dst"].placement = None
    assert fired(run_drc(d2, tiny_device), "RTE-004")


def test_is_wire_edge_matches_neighbors(tiny_graph):
    g = tiny_graph
    probe = [0, 1, g.n_nodes // 2, g.n_nodes - 1]
    for node in probe:
        neigh = {n for n, _c, _s in g.neighbors(node)}
        for other in range(g.n_nodes):
            assert g.is_wire_edge(node, other) == (other in neigh)
    assert not g.is_wire_edge(-1, 0) and not g.is_wire_edge(0, g.n_nodes)


# -- database rules ----------------------------------------------------------


def make_database(device):
    db = ComponentDatabase(device)
    d = make_clean_design()
    for cell in d.cells.values():
        cell.locked = True
    d.metadata["ooc"] = {"fmax_mhz": 100.0}
    db.put(("sig", 1), d)
    return db


def tamper(record, edit, *, restamp=False):
    """Swap *record*'s image for an edited design's, stale stamp and all
    (*restamp* recomputes the hash, leaving the locked counts as stored)."""
    design = record.image.materialize()
    edit(design)
    image = DesignImage.from_design(design)
    if restamp:
        meta = image.metadata()
        meta["component"]["integrity"]["sha1"] = image_integrity(image)["sha1"]
        image = image.with_metadata(meta)
    record.image = image


def test_db_rules_clean_and_tampered(tiny_device):
    db = make_database(tiny_device)
    d = make_clean_design()
    assert run_drc(d, database=db).is_clean()

    # DB-001: stale key
    (key,) = list(db.records)
    db.records["deadbeefdeadbeef"] = db.records.pop(key)
    r = run_drc(d, database=db)
    assert fired(r, "DB-001")

    # DB-002: image swapped for an edited one after put
    db = make_database(tiny_device)
    (record,) = db.records.values()
    tamper(record, lambda design: setattr(design.cells["a"], "luts", 7))
    r = run_drc(d, database=db)
    assert fired(r, "DB-002") and not fired(r, "DB-003")

    # DB-003: locked counts drifted (hash patched to stay consistent)
    db = make_database(tiny_device)
    (record,) = db.records.values()
    tamper(record, lambda design: setattr(design.cells["a"], "locked", False),
           restamp=True)
    r = run_drc(d, database=db)
    assert fired(r, "DB-003") and not fired(r, "DB-002")

    # a record without a fingerprint cannot be vouched for: an error
    db = make_database(tiny_device)
    (record,) = db.records.values()
    tamper(record, lambda design: design.metadata["component"].pop("integrity"))
    r = run_drc(d, database=db)
    v = [x for x in r.violations if x.rule_id == "DB-002"]
    assert len(v) == 1 and v[0].severity is Severity.ERROR and not r.is_clean()
    assert not fired(r, "DB-003")


def test_fetched_design_mutation_cannot_corrupt_database(tiny_device):
    """Regression: relocating a fetched component used to write through
    aliased metadata into the stored payload (caught by DB-002)."""
    db = make_database(tiny_device)
    fetched = db.get(("sig", 1))
    fetched.metadata.setdefault("ooc", {})["pblock"] = [1, 2, 3, 4]
    fetched.metadata["new_key"] = "x"
    assert run_drc(make_clean_design(), database=db).is_clean()


# -- waivers -----------------------------------------------------------------


def broken_design():
    d = make_clean_design()
    d.connect("floaty", None, ["a"])
    return d


def test_waiver_suppresses_matching_violation():
    wv = WaiverSet.from_dict(
        {"waivers": [{"rules": ["NET-002"], "match": "net:floaty", "reason": "known"}]}
    )
    report = run_drc(broken_design(), waivers=wv)
    assert report.is_clean(Severity.FATAL) and report.n_waived == 1
    waived = [v for v in report.violations if v.waived]
    assert waived[0].waived_reason == "known"
    # non-matching location: not waived
    wv2 = WaiverSet.from_dict({"waivers": [{"rules": ["NET-002"], "match": "net:other"}]})
    assert not run_drc(broken_design(), waivers=wv2).is_clean(Severity.FATAL)


def test_waiver_expiry_with_injected_today():
    entry = {"rules": ["NET-*"], "expires": "2026-06-30", "reason": "temp"}
    wv = WaiverSet.from_dict({"waivers": [entry]})
    active = run_drc(broken_design(), waivers=wv, today=date(2026, 6, 30))
    assert active.n_waived == 1 and not fired(active, "WVR-001")
    expired = run_drc(broken_design(), waivers=wv, today=date(2026, 7, 1))
    assert expired.n_waived == 0
    notices = [v for v in expired.violations if v.rule_id == "WVR-001"]
    assert len(notices) == 1 and "expired" in notices[0].message
    assert not expired.is_clean(Severity.FATAL)


def test_waiver_file_roundtrip(tmp_path):
    toml = tmp_path / "waivers.toml"
    toml.write_text(
        '[[waivers]]\nrules = ["NET-002"]\nmatch = "net:floaty"\n'
        'reason = "boundary"\nexpires = 2099-01-01\n'
    )
    wv = WaiverSet.load(toml)
    assert wv.waivers[0].expires == date(2099, 1, 1)
    assert run_drc(broken_design(), waivers=wv).is_clean(Severity.FATAL)

    jsn = tmp_path / "waivers.json"
    jsn.write_text(json.dumps({"waivers": [{"rules": "NET-002"}]}))
    assert run_drc(broken_design(), waivers=WaiverSet.load(jsn)).is_clean(Severity.FATAL)


def test_waiver_file_validation(tmp_path):
    with pytest.raises(WaiverError, match="top-level 'waivers'"):
        WaiverSet.from_dict({"rules": []})
    with pytest.raises(WaiverError, match="non-empty 'rules'"):
        WaiverSet.from_dict({"waivers": [{"match": "*"}]})
    with pytest.raises(WaiverError, match="bad expires"):
        WaiverSet.from_dict({"waivers": [{"rules": ["X"], "expires": "not-a-date"}]})
    missing = tmp_path / "none.toml"
    with pytest.raises(WaiverError, match="cannot read"):
        WaiverSet.load(missing)


_TOML_WAIVERS = [
    '[[waivers]]\nrules = ["NET-002"]\nmatch = "net:floaty"\n'
    'reason = "boundary"\nexpires = 2099-01-01\n',
    '[[waivers]]\nrules = ["NET-002"]\nreason = "seeded"\n',
    '# header\n\n[[waivers]]   # first\nrules = ["NET-001", "CLK-*",]  # patterns\n'
    'match = \'net:conv1/*\'\nreason = "a # in a string, \\"quoted\\" \\u00e9"\n'
    'expires = "2027-01-01"\n[[waivers]]\nrules="X"\n',
]


def test_toml_waivers_load_without_tomllib(monkeypatch, tmp_path):
    """Where ``tomllib`` is missing (Python 3.10) a waiver file is read as
    the subset its schema uses, to exactly what ``tomllib`` returns."""
    tomllib = pytest.importorskip("tomllib")
    from repro.reporting import _load_toml

    texts = [(Path(__file__).parent.parent / "lint-waivers.toml").read_text(), *_TOML_WAIVERS]
    parsed = [tomllib.loads(text) for text in texts]
    monkeypatch.setitem(sys.modules, "tomllib", None)
    assert [_load_toml(text) for text in texts] == parsed
    toml = tmp_path / "waivers.toml"
    toml.write_text(_TOML_WAIVERS[0])
    assert WaiverSet.load(toml).waivers[0].expires == date(2099, 1, 1)
    toml.write_text('[[waivers]]\nrules = [\n  "NET-002",\n]\n')  # a multi-line array
    with pytest.raises(WaiverError, match="line 2 is outside the waiver TOML subset"):
        WaiverSet.load(toml)


# -- report formats ----------------------------------------------------------


def test_table_and_json_shapes():
    report = run_drc(broken_design())
    table = report.table()
    assert "NET-002" in table and "fatal" in table
    payload = report.to_json()
    assert payload["design"] == "clean" and payload["clean"] is False
    assert payload["counts"]["fatal"] == 1
    assert payload["violations"][0]["rule"] == "NET-002"


def test_sarif_shape():
    wv = WaiverSet.from_dict({"waivers": [{"rules": ["NET-002"]}]})
    report = run_drc(broken_design(), waivers=wv)
    sarif = report.to_sarif()
    assert sarif["version"] == "2.1.0" and "sarif-2.1.0" in sarif["$schema"]
    run = sarif["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-drc"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert "NET-002" in rule_ids
    for r in driver["rules"]:
        assert r["defaultConfiguration"]["level"] in ("error", "warning", "note")
    result = next(r for r in run["results"] if r["ruleId"] == "NET-002")
    assert result["level"] == "error"  # SARIF has no "fatal"
    assert result["locations"][0]["logicalLocations"][0]["fullyQualifiedName"] == "net:floaty"
    assert result["suppressions"][0]["status"] == "accepted"
    assert driver["rules"][result["ruleIndex"]]["id"] == "NET-002"


def test_exit_codes():
    clean = run_drc(make_clean_design())
    dirty = run_drc(broken_design())
    assert clean.exit_code("strict") == 0 and clean.exit_code("warn") == 0
    assert dirty.exit_code("strict") == 2 and dirty.exit_code("warn") == 0
    assert dirty.exit_code("off") == 0
    with pytest.raises(ValueError, match="unknown DRC mode"):
        dirty.exit_code("loose")


# -- Design.validate adapter -------------------------------------------------


def test_validate_collects_all_fatals():
    d = broken_design()
    d.connect("bad", "ghost", ["a"])
    with pytest.raises(DesignError) as exc:
        d.validate()
    assert len(exc.value.violations) == 2
    rule_ids = {v.rule_id for v in exc.value.violations}
    assert rule_ids == {"NET-002", "NET-003"}
    assert "no driver" in str(exc.value) and "unknown cell" in str(exc.value)


def test_plain_design_error_has_empty_violations():
    err = DesignError("boom")
    assert err.violations == []


@st.composite
def fuzzed_designs(draw):
    d = Design("fuzz")
    n_cells = draw(st.integers(1, 6))
    for i in range(n_cells):
        d.add_cell(Cell(f"c{i}", "SLICE", seq=draw(st.booleans())))
    cell_or_ghost = st.one_of(
        st.integers(0, n_cells - 1).map(lambda i: f"c{i}"),
        st.just("ghost"),
    )
    for i in range(draw(st.integers(0, 6))):
        driver = draw(st.one_of(st.none(), cell_or_ghost))
        sinks = draw(st.lists(cell_or_ghost, max_size=3))
        d.add_net(Net(f"n{i}", driver, sinks))
    net_names = list(d.nets)
    if net_names and draw(st.booleans()):
        d.add_port(
            Port("p0", draw(st.sampled_from(["in", "out"])), draw(st.sampled_from(net_names)))
        )
        if draw(st.booleans()):
            d.ports["p0"].net = "phantom_net"
    return d


@settings(max_examples=60, deadline=None)
@given(fuzzed_designs())
def test_strict_drc_and_validate_agree(design):
    report = run_drc(design)
    validate_raised = False
    try:
        design.validate()
    except DesignError as exc:
        validate_raised = True
        assert exc.violations, "validate must carry its violations"
    if report.is_clean(Severity.ERROR):
        # strict pass implies validate pass
        assert not validate_raised
    if validate_raised:
        # validate failure implies fatal findings and a strict failure
        assert not report.is_clean(Severity.FATAL)
        assert not report.is_clean(Severity.ERROR)
    else:
        assert report.is_clean(Severity.FATAL)


# -- stitching stays DRC-clean -----------------------------------------------


def test_prune_dangling_nets_unit():
    d = make_clean_design()
    d.connect("leftover", "b", [])          # unbridged boundary net
    d.connect("orphan", None, [])           # fully disconnected
    d.connect("real_error", None, ["a"])    # undriven WITH sinks: must stay
    pruned = prune_dangling_nets(d)
    assert sorted(pruned) == ["leftover", "orphan"]
    assert "real_error" in d.nets and "out" in d.nets  # port nets survive
    report = run_drc(d)
    assert not fired(report, "NET-001")
    assert fired(report, "NET-002")


@pytest.fixture(scope="module")
def lenet_strict(big_device):
    net = lenet5()
    result = PreImplementedFlow(big_device, seed=0, drc="strict").run(net)
    return result, result.extras["database"], big_device


def test_stitched_lenet_is_drc_clean(lenet_strict):
    result, db, device = lenet_strict
    # strict gates already passed inside the flow; the final sweep with
    # database integrity checks must be clean too
    report = run_drc(
        result.design, device, database=db, require_routed=True, gate="test"
    )
    assert report.is_clean()
    assert not fired(report, "NET-001")
    # whatever the stitcher pruned is really gone from the top netlist
    assert all(n not in result.design.nets
               for n in result.extras["stitch"].pruned_nets)


def test_flow_gate_reports_collected(lenet_strict):
    result, _db, _device = lenet_strict
    reports = result.extras["drc"]
    gates = [r.gate for r in reports]
    assert "pre_route" in gates and "post_route" in gates
    assert any(g.startswith("component:") for g in gates)
    assert all(r.is_clean() for r in reports)


def test_strict_gate_raises_on_seeded_violation(small_device, tiny_cnn):
    flow = PreImplementedFlow(small_device, seed=0, drc="strict")
    db = flow.run(tiny_cnn).extras["database"]
    # corrupt one stored checkpoint: drop a net's driver
    def drop_a_driver(design):
        net = next(n for n in design.nets.values() if n.driver is not None)
        net.driver = None

    tamper(next(iter(db.records.values())), drop_a_driver)
    with pytest.raises(DrcError) as exc:
        flow.run(tiny_cnn, database=db)
    assert exc.value.gate.startswith("component:")
    assert any(v.rule_id == "NET-002" for v in exc.value.report.violations)
    assert exc.value.violations  # DesignError contract


def test_warn_mode_collects_instead_of_raising(small_device, tiny_cnn):
    flow = PreImplementedFlow(small_device, seed=0, drc="warn")
    db = flow.run(tiny_cnn).extras["database"]
    # tamper with a stored image in a netlist-neutral way: the flow
    # still completes, but DB-002 must flag it at the post_route gate
    tamper(next(iter(db.records.values())),
           lambda design: design.metadata.update(tampered=True))
    result = flow.run(tiny_cnn, database=db)
    dirty = [r for r in result.extras["drc"] if not r.is_clean()]
    assert dirty and any(fired(r, "DB-002") for r in dirty)


def test_flow_rejects_unknown_drc_mode(small_device):
    with pytest.raises(ValueError, match="unknown drc mode"):
        PreImplementedFlow(small_device, drc="loud")


# -- CLI ---------------------------------------------------------------------


def checkpoint_with_violation(tmp_path, device):
    from repro.netlist import save_checkpoint

    d = routed_pair(device)
    d.nets["wire"].driver = None  # NET-002, seeded
    path = tmp_path / "broken.dcpb"
    save_checkpoint(d, path)
    return path


def test_cli_drc_checkpoint_violation_and_waiver(tmp_path, tiny_device, capsys):
    from repro.cli import main

    path = checkpoint_with_violation(tmp_path, tiny_device)
    sarif_path = tmp_path / "report.sarif"
    code = main(
        ["drc", "--checkpoint", str(path), "--part", "tiny",
         "--sarif", str(sarif_path), "--json", str(tmp_path / "report.json")]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "NET-002" in out  # rule id in the human table
    sarif = json.loads(sarif_path.read_text())
    assert any(
        r["ruleId"] == "NET-002" for r in sarif["runs"][0]["results"]
    )
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["counts"]["fatal"] >= 1

    # a waiver for the seeded rule flips the exit code back to 0
    waivers = tmp_path / "w.toml"
    waivers.write_text('[[waivers]]\nrules = ["NET-002"]\nreason = "seeded"\n')
    code = main(
        ["drc", "--checkpoint", str(path), "--part", "tiny",
         "--waivers", str(waivers)]
    )
    assert code == 0
    assert "(waived)" in capsys.readouterr().out


def test_cli_drc_warn_mode_exits_zero(tmp_path, tiny_device, capsys):
    from repro.cli import main

    path = checkpoint_with_violation(tmp_path, tiny_device)
    assert main(["drc", "--checkpoint", str(path), "--part", "tiny",
                 "--mode", "warn"]) == 0


def test_cli_drc_old_checkpoint_is_a_sentence(tmp_path, tiny_device, capsys):
    """An old JSON checkpoint is named and refused with exit 2, not a traceback."""
    from repro.cli import main

    doc = json.dumps(design_to_dict(routed_pair(tiny_device))).encode()
    path = tmp_path / "old.ckpt"
    for found, raw in (("gzip-compressed JSON", gzip.compress(doc)), ("plain JSON", doc)):
        path.write_bytes(raw)
        assert main(["drc", "--checkpoint", str(path), "--part", "tiny"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # the reason is an error line, on stderr
        err = captured.err
        assert found in err and "binary design image" in err
        assert "save_checkpoint" in err and "Traceback" not in err


# -- observability -----------------------------------------------------------


def test_drc_run_emits_span_and_metrics():
    from repro.obs import InMemorySink, Tracer

    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.activate():
        run_drc(broken_design(), gate="obs-test")
    tracer.finish()
    spans = [e for e in sink.events if e.get("ph") == "span" and e["name"] == "drc.run"]
    assert spans and spans[0]["attrs"]["gate"] == "obs-test"
    counters = [e for e in sink.events
                if e.get("ph") == "metric" and e["name"] == "drc.violations.NET-002"]
    assert counters


# -- severity/violation primitives ------------------------------------------


def test_severity_parse_and_order():
    assert Severity.parse("error") is Severity.ERROR
    assert Severity.parse(Severity.INFO) is Severity.INFO
    assert Severity.INFO < Severity.WARNING < Severity.ERROR < Severity.FATAL
    assert str(Severity.WARNING) == "warning"
    with pytest.raises(ValueError, match="unknown severity"):
        Severity.parse("mild")


def test_violation_str_and_location():
    v = Violation("X-001", Severity.WARNING, "msg", Location("net", "n", "d"))
    assert str(v) == "[X-001] warning: msg"
    assert str(v.location) == "net:n@d"
    v.waived = True
    assert str(v).endswith("(waived)")
