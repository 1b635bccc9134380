"""The exact bytes of both checkers' report surfaces.

A DRC report and a lint report are built by hand, each with an unwaived
finding, a waived finding and an expired-waiver ``WVR-001`` notice, and
their ``summary()``, ``table()``, ``to_json()`` and ``to_sarif()`` are
held to literals.  The JSON and SARIF documents are compared as
serialized text, so key order is pinned along with the values.
"""

import json

import pytest

from repro.drc import DrcReport, Location, Severity, Violation
from repro.lint import LintFinding, LintReport
from repro.reporting import validate_sarif

EXPIRED = ("waiver for NET-* (match '*') expired 2020-01-01; "
           "it no longer suppresses violations")


def drc_report():
    return DrcReport(
        design="top",
        gate="post_route",
        rules_run=["NET-001", "NET-006"],
        violations=[
            Violation("NET-001", Severity.ERROR, "net n1 has no driver",
                      Location("net", "n1"), design="top"),
            Violation("NET-006", Severity.WARNING, "net n2 fans out to 9 sinks (ceiling 4)",
                      Location("net", "n2", "X3Y4"), design="top",
                      waived=True, waived_reason="reviewed fanout"),
            Violation("WVR-001", Severity.INFO, EXPIRED,
                      Location("waiver", "waivers.toml", "2020-01-01")),
        ],
    )


def lint_report():
    return LintReport(
        root="repo",
        files_scanned=3,
        rules_run=["DET-001", "DET-002"],
        findings=[
            LintFinding("DET-001", Severity.ERROR, "ambient RNG random.random()",
                        path="src/repro/route/maze.py", line=12, col=4,
                        snippet="random.random()"),
            LintFinding("DET-002", Severity.WARNING, "wall-clock read time.time()",
                        path="src/repro/serve/store.py", line=40,
                        waived=True, waived_reason="journal metadata"),
            LintFinding("WVR-001", Severity.INFO, EXPIRED, path="waivers.toml"),
        ],
    )


DRC_SUMMARY = 'DRC top: 1 info, 1 error (1 waived) [2 rules swept]'
DRC_TABLE = (
    'DRC top: 1 info, 1 error (1 waived) [2 rules swept]\n'
    '===================================================\n'
    'rule     severity          location                        message                                                                            \n'
    '-------  ----------------  ------------------------------  -----------------------------------------------------------------------------------\n'
    'NET-001  error             net:n1                          net n1 has no driver                                                               \n'
    'NET-006  warning (waived)  net:n2@X3Y4                     net n2 fans out to 9 sinks (ceiling 4)                                             \n'
    "WVR-001  info              waiver:waivers.toml@2020-01-01  waiver for NET-* (match '*') expired 2020-01-01; it no longer suppresses violations\n"
)
DRC_JSON = {'design': 'top',
 'gate': 'post_route',
 'rules_run': ['NET-001', 'NET-006'],
 'counts': {'info': 1, 'warning': 0, 'error': 1, 'fatal': 0},
 'by_rule': {'NET-001': 1, 'WVR-001': 1},
 'n_waived': 1,
 'clean': False,
 'violations': [{'rule': 'NET-001',
                 'severity': 'error',
                 'message': 'net n1 has no driver',
                 'location': {'kind': 'net', 'name': 'n1', 'detail': ''},
                 'design': 'top',
                 'waived': False},
                {'rule': 'NET-006',
                 'severity': 'warning',
                 'message': 'net n2 fans out to 9 sinks (ceiling 4)',
                 'location': {'kind': 'net', 'name': 'n2', 'detail': 'X3Y4'},
                 'design': 'top',
                 'waived': True,
                 'waived_reason': 'reviewed fanout'},
                {'rule': 'WVR-001',
                 'severity': 'info',
                 'message': "waiver for NET-* (match '*') expired 2020-01-01; it no "
                            'longer suppresses violations',
                 'location': {'kind': 'waiver',
                              'name': 'waivers.toml',
                              'detail': '2020-01-01'},
                 'design': '',
                 'waived': False}]}
DRC_SARIF = {'$schema': 'https://json.schemastore.org/sarif-2.1.0.json',
 'version': '2.1.0',
 'runs': [{'tool': {'driver': {'name': 'repro-drc',
                               'informationUri': 'https://example.invalid/repro',
                               'rules': [{'id': 'NET-001',
                                          'name': 'DanglingNet',
                                          'shortDescription': {'text': 'dangling net'},
                                          'defaultConfiguration': {'level': 'warning'},
                                          'properties': {'category': 'netlist'}},
                                         {'id': 'NET-006',
                                          'name': 'FanoutCeiling',
                                          'shortDescription': {'text': 'fanout '
                                                                       'ceiling'},
                                          'defaultConfiguration': {'level': 'warning'},
                                          'properties': {'category': 'netlist'}},
                                         {'id': 'WVR-001',
                                          'name': 'ExpiredWaiver',
                                          'shortDescription': {'text': 'expired '
                                                                       'waiver'},
                                          'defaultConfiguration': {'level': 'note'},
                                          'properties': {'category': 'waiver'}}]}},
           'results': [{'ruleId': 'NET-001',
                        'level': 'error',
                        'message': {'text': 'net n1 has no driver'},
                        'locations': [{'logicalLocations': [{'name': 'n1',
                                                             'fullyQualifiedName': 'net:n1',
                                                             'kind': 'net'}]}],
                        'properties': {'design': 'top'},
                        'ruleIndex': 0},
                       {'ruleId': 'NET-006',
                        'level': 'warning',
                        'message': {'text': 'net n2 fans out to 9 sinks (ceiling 4)'},
                        'locations': [{'logicalLocations': [{'name': 'n2',
                                                             'fullyQualifiedName': 'net:n2@X3Y4',
                                                             'kind': 'net'}]}],
                        'properties': {'design': 'top'},
                        'suppressions': [{'kind': 'external',
                                          'status': 'accepted',
                                          'justification': 'reviewed fanout'}],
                        'ruleIndex': 1},
                       {'ruleId': 'WVR-001',
                        'level': 'note',
                        'message': {'text': "waiver for NET-* (match '*') expired "
                                            '2020-01-01; it no longer suppresses '
                                            'violations'},
                        'locations': [{'logicalLocations': [{'name': 'waivers.toml',
                                                             'fullyQualifiedName': 'waiver:waivers.toml@2020-01-01',
                                                             'kind': 'waiver'}]}],
                        'properties': {'design': 'top'},
                        'ruleIndex': 2}],
           'properties': {'design': 'top',
                          'gate': 'post_route',
                          'rulesRun': ['NET-001', 'NET-006']}}]}
LINT_SUMMARY = 'lint repo: 1 info, 1 error (1 waived) [2 rules, 3 files]'
LINT_TABLE = (
    'lint repo: 1 info, 1 error (1 waived) [2 rules, 3 files]\n'
    '========================================================\n'
    'rule     severity          location                     message                                                                            \n'
    '-------  ----------------  ---------------------------  -----------------------------------------------------------------------------------\n'
    'DET-001  error             src/repro/route/maze.py:12   ambient RNG random.random()                                                        \n'
    'DET-002  warning (waived)  src/repro/serve/store.py:40  wall-clock read time.time()                                                        \n'
    "WVR-001  info              waivers.toml                 waiver for NET-* (match '*') expired 2020-01-01; it no longer suppresses violations\n"
)
LINT_JSON = {'root': 'repo',
 'files_scanned': 3,
 'rules_run': ['DET-001', 'DET-002'],
 'counts': {'info': 1, 'warning': 0, 'error': 1, 'fatal': 0},
 'by_rule': {'DET-001': 1, 'WVR-001': 1},
 'n_waived': 1,
 'clean': False,
 'findings': [{'rule': 'DET-001',
               'severity': 'error',
               'message': 'ambient RNG random.random()',
               'path': 'src/repro/route/maze.py',
               'line': 12,
               'col': 4,
               'waived': False,
               'snippet': 'random.random()'},
              {'rule': 'DET-002',
               'severity': 'warning',
               'message': 'wall-clock read time.time()',
               'path': 'src/repro/serve/store.py',
               'line': 40,
               'col': 0,
               'waived': True,
               'waived_reason': 'journal metadata'},
              {'rule': 'WVR-001',
               'severity': 'info',
               'message': "waiver for NET-* (match '*') expired 2020-01-01; it no "
                          'longer suppresses violations',
               'path': 'waivers.toml',
               'line': 0,
               'col': 0,
               'waived': False}]}
LINT_SARIF = {'$schema': 'https://json.schemastore.org/sarif-2.1.0.json',
 'version': '2.1.0',
 'runs': [{'tool': {'driver': {'name': 'repro-lint',
                               'informationUri': 'https://example.invalid/repro',
                               'rules': [{'id': 'DET-001',
                                          'name': 'AmbientRandomNumberGenerator',
                                          'shortDescription': {'text': 'ambient random '
                                                                       'number '
                                                                       'generator'},
                                          'defaultConfiguration': {'level': 'error'},
                                          'properties': {'category': 'determinism'}},
                                         {'id': 'DET-002',
                                          'name': 'WallClockOrEntropyRead',
                                          'shortDescription': {'text': 'wall-clock or '
                                                                       'entropy read'},
                                          'defaultConfiguration': {'level': 'warning'},
                                          'properties': {'category': 'determinism'}},
                                         {'id': 'WVR-001',
                                          'name': 'ExpiredWaiver',
                                          'shortDescription': {'text': 'expired '
                                                                       'waiver'},
                                          'defaultConfiguration': {'level': 'note'},
                                          'properties': {'category': 'waiver'}}]}},
           'results': [{'ruleId': 'DET-001',
                        'level': 'error',
                        'message': {'text': 'ambient RNG random.random()'},
                        'locations': [{'physicalLocation': {'artifactLocation': {'uri': 'src/repro/route/maze.py'},
                                                            'region': {'startLine': 12,
                                                                       'startColumn': 5}}}],
                        'ruleIndex': 0},
                       {'ruleId': 'DET-002',
                        'level': 'warning',
                        'message': {'text': 'wall-clock read time.time()'},
                        'locations': [{'physicalLocation': {'artifactLocation': {'uri': 'src/repro/serve/store.py'},
                                                            'region': {'startLine': 40}}}],
                        'suppressions': [{'kind': 'external',
                                          'status': 'accepted',
                                          'justification': 'journal metadata'}],
                        'ruleIndex': 1},
                       {'ruleId': 'WVR-001',
                        'level': 'note',
                        'message': {'text': "waiver for NET-* (match '*') expired "
                                            '2020-01-01; it no longer suppresses '
                                            'violations'},
                        'locations': [{'physicalLocation': {'artifactLocation': {'uri': 'waivers.toml'}}}],
                        'ruleIndex': 2}],
           'properties': {'root': 'repo',
                          'filesScanned': 3,
                          'rulesRun': ['DET-001', 'DET-002']}}]}


CASES = {
    "drc": (drc_report, DRC_SUMMARY, DRC_TABLE, DRC_JSON, DRC_SARIF),
    "lint": (lint_report, LINT_SUMMARY, LINT_TABLE, LINT_JSON, LINT_SARIF),
}


@pytest.mark.parametrize("checker", sorted(CASES))
def test_report_surfaces_are_pinned(checker):
    build, summary, table, doc, sarif = CASES[checker]
    report = build()
    assert report.summary() == summary
    assert report.table() == "".join(table).rstrip("\n")
    assert json.dumps(report.to_json(), indent=2) == json.dumps(doc, indent=2)
    assert json.dumps(report.to_sarif(), indent=2) == json.dumps(sarif, indent=2)
    validate_sarif(report.to_sarif())
