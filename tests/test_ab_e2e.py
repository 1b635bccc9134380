"""``benchmarks/ab_e2e.py`` reads what ``benchmarks/e2e/run.py`` prints.

The A/B script's parser and summary are fed canned harness output: the
metric values come from the result object on the last line, the
undivided median op wall from the table above it, and the summary
counts a pair as better in the direction ``BENCHMARK.json`` gives.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_e2e", ROOT / "benchmarks" / "ab_e2e.py")
ab_e2e = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_e2e)


def _output(compile_s: float, wall: float, rss: float = 90.0, correct: bool = True) -> str:
    """What ``run.py --workload vgg16_preimpl_warm`` prints, shortened."""
    metrics = {"compile_s": {"value": compile_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"},
               "fmax_mhz": {"value": 276.6252, "unit": "MHz"}}
    return "\n".join([
        "vgg16_preimpl_warm: seed 0, 3 timed ops, 0 of 3 ops failed (failed_share 0.000)",
        f"  measured op wall q1 0.0100 / median {wall:.4f} / q3 0.0200 / max 0.0300 s, "
        "set-up 1.0000 s; position drift 0.010; host slow-down 1.200 (probe unit at best 1.000 ms)",
        "  measured op walls (s): 0.0100 0.0150 0.0200",
        f"  compile_s {compile_s} s",
        json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                    "metrics": metrics}),
    ])


def test_parse_reads_the_result_line_and_the_measured_median():
    got = ab_e2e.parse_run(_output(0.0125, 0.0151))
    assert got == {"compile_s": 0.0125, "peak_rss_mb": 90.0, "fmax_mhz": 276.6252,
                   "measured_median_s": 0.0151, "correct": True}
    assert ab_e2e.parse_run(_output(0.0125, 0.0151, correct=False))["correct"] is False


def test_parse_without_a_wall_line_has_no_measured_median():
    lines = _output(0.0125, 0.0151).splitlines()
    got = ab_e2e.parse_run("\n".join(line for line in lines if "measured op wall q1" not in line))
    assert got["measured_median_s"] is None


def test_summary_counts_pairs_in_the_metric_direction():
    pairs = [(ab_e2e.parse_run(_output(p, p * 1.2, rss=90.0)),
              ab_e2e.parse_run(_output(c, c * 1.2, rss=91.0)))
             for p, c in [(0.010, 0.008), (0.010, 0.009), (0.010, 0.011), (0.010, 0.0085)]]
    lines = ab_e2e.summarize(pairs, {"compile_s": "lower", "peak_rss_mb": "lower",
                                     "fmax_mhz": "higher", "measured_median_s": "lower"})
    by_name = {line.split()[0]: line for line in lines}
    assert "better in 3/4" in by_name["compile_s"]
    assert "delta median -12.5%" in by_name["compile_s"]
    assert "pairs: -20.0% -10.0% +10.0% -15.0%" in by_name["compile_s"]
    assert "better in 0/4" in by_name["peak_rss_mb"]
    assert "better in 0/4" in by_name["fmax_mhz"]      # equal is not better
    assert "better in 3/4" in by_name["measured_median_s"]


@pytest.mark.parametrize("argv", [["--workload", "w"], ["--parent", "HEAD"]])
def test_parent_and_workload_are_required(argv):
    with pytest.raises(SystemExit):
        ab_e2e.main(argv)
