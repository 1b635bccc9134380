"""SARIF 2.1.0 conformance for both checkers' reports.

The container has no network (and possibly no jsonschema), so the check
runs in two layers: :func:`repro.reporting.validate_sarif` — a
dependency-free structural validator covering the subset of the spec
both emitters use — always runs; when :mod:`jsonschema` happens to be
importable, the same documents are additionally validated against a
vendored subset of the official sarif-2.1.0 schema.
"""

from __future__ import annotations

import json

import pytest

from repro.fabric import Device
from repro.netlist import Design
from repro.drc import run_drc
from repro.lint import run_lint
from repro.reporting import SARIF_VERSION, WaiverSet, validate_sarif

# A vendored subset of the official SARIF 2.1.0 JSON schema: the
# properties our emitters produce, with additionalProperties left open
# exactly where the spec leaves them open.
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {"text": {"type": "string"}},
                                },
                                "locations": {"type": "array"},
                                "suppressions": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["kind"],
                                        "properties": {
                                            "kind": {
                                                "enum": ["inSource", "external"]
                                            },
                                            "status": {
                                                "enum": ["accepted", "underReview",
                                                         "rejected"]
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def _drc_sarif():
    device = Device.from_name("tiny")
    design = Design("sarif_probe")
    design.new_cell("a", "SLICE", luts=1)
    design.new_cell("b", "SLICE", luts=1)
    design.connect("n0", "a", ["b"])
    report = run_drc(design, device, gate="unit:sarif")
    return report.to_sarif(), report


def _lint_sarif(tmp_path):
    (tmp_path / "src" / "repro" / "place").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "place" / "foo.py").write_text(
        "import random\nx = random.random()\n"
    )
    waivers = WaiverSet.from_dict({"waivers": [{
        "rules": ["DET-001"], "match": "*", "reason": "unit probe",
    }]})
    report = run_lint(root=tmp_path, rules=["DET-001"], waivers=waivers)
    assert report.findings, "fixture must produce at least one finding"
    return report.to_sarif(), report


def _maybe_jsonschema(doc):
    try:
        import jsonschema
    except ImportError:
        return
    jsonschema.validate(doc, SARIF_SUBSET_SCHEMA)


def test_drc_sarif_is_valid():
    doc, report = _drc_sarif()
    validate_sarif(doc)
    _maybe_jsonschema(doc)
    assert doc["version"] == SARIF_VERSION
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-drc"
    assert len(run["results"]) == len(report.violations)


def test_lint_sarif_is_valid(tmp_path):
    doc, report = _lint_sarif(tmp_path)
    validate_sarif(doc)
    _maybe_jsonschema(doc)
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    # a waived finding travels as a suppressed result, not a dropped one
    suppressed = [r for r in run["results"] if r.get("suppressions")]
    assert suppressed
    for s in suppressed:
        assert s["suppressions"][0]["kind"] == "external"
    # physical locations carry repo-relative forward-slash paths
    for r in run["results"]:
        uri = r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        assert not uri.startswith("/") and "\\" not in uri


def test_rule_index_consistency():
    doc, _ = _drc_sarif()
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    ids = [r["id"] for r in rules]
    for result in doc["runs"][0]["results"]:
        if "ruleIndex" in result:
            assert ids[result["ruleIndex"]] == result["ruleId"]


def test_sarif_round_trips_through_json():
    doc, _ = _drc_sarif()
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("version"), "version"),
    (lambda d: d["runs"][0]["tool"]["driver"].pop("name"), "name"),
    (lambda d: d["runs"][0]["results"].append({"level": "error"}), "ruleId"),
])
def test_validator_rejects_malformed_documents(mutate, fragment):
    doc, _ = _drc_sarif()
    mutate(doc)
    with pytest.raises(ValueError, match=fragment):
        validate_sarif(doc)
