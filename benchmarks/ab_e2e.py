"""A/B runs of the end-to-end benchmark: a revision against the working tree.

    python3 benchmarks/ab_e2e.py --parent HEAD --workload vgg16_preimpl_warm --pairs 10

Exports ``--parent`` with ``git archive`` into a temporary directory and
runs ``benchmarks/e2e/run.py --workload W`` in that tree and in the
working tree, one after the other, ``--pairs`` times; the order flips
each pair (parent first, then change first, ...), so a host that slows
down during the campaign charges both sides alike.  Each run is a fresh
process that builds from the source in its own tree.

For every end-to-end metric of ``BENCHMARK.json`` it prints each pair's
relative change (change ÷ parent − 1), their median and quartiles
``[q1, q3]`` and in how many pairs the change was better, then the same
for the measured (undivided) median op wall each run prints.  Extra
arguments after ``--`` go to ``run.py`` (``-- --ops 20``).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "e2e" / "run.py"

#: The measured (undivided) op quartiles line of ``run.py``'s table.
_WALL = re.compile(r"measured op wall q1 [\d.]+ / median ([\d.]+) /")


def parse_run(stdout: str) -> dict[str, float]:
    """Metric name -> value of one ``run.py`` output (its last line is
    the result object), plus ``measured_median_s``, the undivided median
    op wall of the table above it (``None`` when the run printed none)."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: row["value"] for name, row in result["metrics"].items()}
    walls = [float(m.group(1)) for m in map(_WALL.search, lines) if m]
    values["measured_median_s"] = walls[-1] if walls else None
    values["correct"] = result["correct"]
    return values


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """One line per metric of *better* (name -> ``"lower"`` / ``"higher"``)
    over the ``(parent, change)`` runs of *pairs*."""
    out = []
    for name, direction in better.items():
        rows = [(p[name], c[name]) for p, c in pairs
                if p.get(name) is not None and c.get(name) is not None]
        if not rows:
            continue
        deltas = [c / p - 1 if p else 0.0 for p, c in rows]
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in rows)
        q1, _, q3 = (statistics.quantiles(deltas, n=4, method="inclusive")
                     if len(deltas) > 1 else (deltas[0],) * 3)
        out.append(
            f"{name:<20} parent {statistics.median(p for p, _ in rows):.6g}  "
            f"change {statistics.median(c for _, c in rows):.6g}  "
            f"delta median {statistics.median(deltas):+.1%} [q1 {q1:+.1%}, q3 {q3:+.1%}]  "
            f"better in {wins}/{len(rows)}  pairs: "
            + " ".join(f"{d:+.1%}" for d in deltas))
    return out


def _export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def _run(tree: Path, workload: str, extra: list[str]) -> dict:
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, *extra],
                          cwd=tree, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"ab_e2e: run.py in {tree} exited {done.returncode}")
    return parse_run(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("extra", nargs="*", help="arguments for run.py, after --")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["measured_median_s"] = "lower"
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab_e2e_") as tmp:
        parent = Path(tmp)
        _export(args.parent, parent)
        for i in range(args.pairs):
            order = [(parent, "parent"), (ROOT, "change")]
            if i % 2:
                order.reverse()
            runs = {side: _run(tree, args.workload, args.extra) for tree, side in order}
            pairs.append((runs["parent"], runs["change"]))
            print(f"pair {i + 1}/{args.pairs} ({order[0][1]} first): " + "  ".join(
                f"{side} compile_s {run['compile_s']:.6g}" for side, run in runs.items()),
                flush=True)
    if not all(p["correct"] and c["correct"] for p, c in pairs):
        print("WARNING: some run reported failed ops")
    print(f"{args.workload}: {args.parent} -> working tree, {len(pairs)} pairs")
    for line in summarize(pairs, better):
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
