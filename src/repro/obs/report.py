"""Trace inspection: loading, canonical span trees, and summary tables.

Two consumers drive this module:

* ``repro trace-report out.jsonl`` — a per-span-name aggregate table
  (count, total, self time) plus the metric summaries, so a flow run's
  hot stages are readable without leaving the terminal;
* determinism tests — :func:`span_tree` reduces a trace to a *canonical*
  nested structure of ``(name, attrs)`` with children sorted, timings
  and ids dropped, so two runs of the same seeded flow compare equal
  byte-for-byte however their spans interleaved in wall time
  (``jobs=1`` versus ``jobs=4``).
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["load_events", "span_tree", "canonical_tree_blob", "summarize"]


def load_events(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file into its event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid trace line: {exc}") from exc
    return events


def span_tree(events: list[dict]) -> list[dict]:
    """Canonical span forest: ``{"name", "attrs", "children"}`` nodes.

    Children (and roots) are sorted by ``(name, serialized attrs)``;
    ids, pids, and timings are dropped.  The result is a pure function
    of the trace's *structure*, which is the determinism contract the
    engine guarantees across schedules.
    """
    nodes: dict[int, dict] = {}
    order: list[dict] = []
    for event in events:
        if event.get("ph") != "span":
            continue
        nodes[event["id"]] = {
            "name": event["name"],
            "attrs": event.get("attrs", {}),
            "children": [],
            "_parent": event.get("parent"),
        }
        order.append(nodes[event["id"]])
    roots: list[dict] = []
    for node in order:
        parent = node.pop("_parent")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)

    def _sort(siblings: list[dict]) -> list[dict]:
        for node in siblings:
            node["children"] = _sort(node["children"])
        return sorted(
            siblings,
            key=lambda n: (n["name"], json.dumps(n["attrs"], sort_keys=True)),
        )

    return _sort(roots)


def canonical_tree_blob(events: list[dict]) -> bytes:
    """Byte-stable serialization of :func:`span_tree` for equality checks."""
    return json.dumps(span_tree(events), sort_keys=True).encode()


def _fmt_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                         for i, (c, w) in enumerate(zip(cells, widths)))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def summarize(events: list[dict], *, sort: str = "total") -> str:
    """Aggregate table over span names, plus metric summaries.

    ``self`` time is a span's duration minus its direct children's — the
    time actually spent at that level, which is what optimisation work
    needs (a stage whose total is large but self is ~0 is just a
    container).
    """
    dur: dict[int, float] = {}
    child_dur: dict[int, float] = {}
    by_name: dict[str, dict] = {}
    spans = [e for e in events if e.get("ph") == "span"]
    for event in spans:
        dur[event["id"]] = event["dur"]
    for event in spans:
        parent = event.get("parent")
        if parent is not None and parent in dur:
            child_dur[parent] = child_dur.get(parent, 0.0) + event["dur"]
    for event in spans:
        agg = by_name.setdefault(
            event["name"], {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0}
        )
        agg["count"] += 1
        agg["total"] += event["dur"]
        agg["self"] += max(0.0, event["dur"] - child_dur.get(event["id"], 0.0))
        agg["max"] = max(agg["max"], event["dur"])

    keys = {"total": lambda kv: -kv[1]["total"],
            "self": lambda kv: -kv[1]["self"],
            "count": lambda kv: -kv[1]["count"],
            "name": lambda kv: kv[0]}
    if sort not in keys:
        raise ValueError(f"unknown sort {sort!r}; known: {sorted(keys)}")
    rows = [
        [name, str(agg["count"]), f"{agg['total']:.3f}", f"{agg['self']:.3f}",
         f"{agg['max'] * 1e3:.1f}"]
        for name, agg in sorted(by_name.items(), key=keys[sort])
    ]
    parts = []
    if rows:
        parts.append(_fmt_table(
            ["span", "count", "total s", "self s", "max ms"], rows))
    else:
        parts.append("(no spans)")

    metric_rows = []
    for event in sorted(
        (e for e in events if e.get("ph") == "metric"), key=lambda e: e["name"]
    ):
        if event.get("kind") == "histogram":
            count = event.get("count", 0)
            mean = event.get("total", 0.0) / count if count else 0.0
            value = (f"n={count} mean={mean:.3f} "
                     f"min={event.get('min', 0.0):.3f} max={event.get('max', 0.0):.3f}")
        else:
            value = f"{event.get('value', 0.0):g}"
        metric_rows.append([event["name"], event.get("kind", "?"), value])
    if metric_rows:
        parts.append(_fmt_table(["metric", "kind", "value"], metric_rows))
    return "\n\n".join(parts)
