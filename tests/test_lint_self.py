"""The committed tree must pass its own static analysis.

This is the regression that keeps `repro lint --strict` green in CI: a
new finding either gets fixed or gets a reviewed entry (with a reason)
in lint-waivers.toml — never silently ignored.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import WaiverSet, run_lint

REPO = Path(__file__).resolve().parent.parent
WAIVERS = REPO / "lint-waivers.toml"


def test_waiver_file_exists_and_every_entry_has_a_reason():
    ws = WaiverSet.load(WAIVERS)
    assert ws.waivers, "lint-waivers.toml lost its entries"
    for w in ws.waivers:
        assert w.reason.strip(), f"waiver {w.rules} on {w.match!r} has no reason"


def test_committed_tree_is_strict_clean():
    report = run_lint(root=REPO, waivers=WaiverSet.load(WAIVERS))
    offenders = [f"{f.rule_id} {f.where()}: {f.message}"
                 for f in report.failing()]
    assert not offenders, "\n".join(offenders)
    assert report.exit_code("strict") == 0


def test_every_waiver_still_matches_something():
    """A waiver that suppresses nothing is stale — the finding it covered
    was fixed; delete the entry so cover doesn't rot."""
    ws = WaiverSet.load(WAIVERS)
    report = run_lint(root=REPO, waivers=ws)
    waived = report.findings
    for w in ws.waivers:
        assert any(
            f.waived and any_match(w, f) for f in waived
        ), f"stale waiver: {w.rules} on {w.match!r} suppresses nothing"


def any_match(waiver, finding):
    return waiver.covers(finding)
