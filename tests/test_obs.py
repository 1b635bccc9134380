"""Unit tests for the repro.obs tracing + metrics subsystem."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.obs import (
    ChromeTraceSink,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    Tracer,
    canonical_tree_blob,
    load_events,
    span_tree,
    summarize,
)


def _spans(sink):
    return [e for e in sink.events if e["ph"] == "span"]


# -- spans ----------------------------------------------------------------


def test_span_noop_without_tracer():
    assert obs.current_tracer() is None
    with obs.span("free", x=1) as sp:
        sp.set(y=2)  # must not raise
    obs.incr("nothing")
    obs.sample("nothing", 1.0)


def test_span_records_name_attrs_duration():
    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.activate():
        with obs.span("work", kind="test"):
            pass
    (event,) = _spans(sink)
    assert event["name"] == "work"
    assert event["attrs"] == {"kind": "test"}
    assert event["dur"] >= 0.0
    assert event["parent"] is None


def test_span_nesting_sets_parent():
    sink = InMemorySink()
    with Tracer(sink).activate():
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner2"):
                pass
    by_name = {e["name"]: e for e in _spans(sink)}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner2"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None


def test_span_set_annotates_and_error_attr():
    sink = InMemorySink()
    with Tracer(sink).activate():
        with obs.span("s") as sp:
            sp.set(result=7)
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("no")
    by_name = {e["name"]: e for e in _spans(sink)}
    assert by_name["s"]["attrs"] == {"result": 7}
    assert by_name["boom"]["attrs"]["error"] == "ValueError"


def test_span_attrs_sanitized_to_json():
    sink = InMemorySink()
    with Tracer(sink).activate():
        with obs.span("s", tup=(1, 2), obj=object()):
            pass
    (event,) = _spans(sink)
    json.dumps(event)  # everything JSON-safe
    assert event["attrs"]["tup"] == [1, 2]
    assert isinstance(event["attrs"]["obj"], str)


def test_activation_is_scoped():
    tracer = Tracer(InMemorySink())
    with tracer.activate():
        assert obs.current_tracer() is tracer
    assert obs.current_tracer() is None


def test_tracer_thread_safety_ids_unique():
    tracer = Tracer(InMemorySink())

    def work():
        with tracer.activate():
            for _ in range(50):
                with tracer.span("t"):
                    pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    ids = [e["id"] for e in tracer.sink.events]
    assert len(ids) == 200 and len(set(ids)) == 200


# -- metrics --------------------------------------------------------------


def test_metrics_counter_gauge_histogram():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(2)
    reg.gauge("g").set(4.5)
    reg.histogram("h").observe(1.0)
    reg.histogram("h").observe(3.0)
    assert reg.counter("c").value == 3
    assert reg.gauge("g").value == 4.5
    hist = reg.histogram("h")
    assert (hist.count, hist.total, hist.min, hist.max, hist.mean) == (2, 4.0, 1.0, 3.0, 2.0)


def test_metrics_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("m")
    with pytest.raises(TypeError):
        reg.gauge("m")


def test_metrics_events_sorted_and_merge_roundtrip():
    reg = MetricsRegistry()
    reg.counter("b").inc(2)
    reg.counter("a").inc(1)
    reg.histogram("h").observe(5.0)
    events = reg.events()
    assert [e["name"] for e in events] == ["a", "b", "h"]

    other = MetricsRegistry()
    for event in events:
        other.merge_event(event)
    for event in events:
        other.merge_event(event)  # merge twice: counters double, min/max stable
    assert other.counter("a").value == 2
    assert other.counter("b").value == 4
    assert other.histogram("h").count == 2
    assert other.histogram("h").min == 5.0


def test_tracer_finish_emits_metric_summaries_once():
    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.activate():
        obs.incr("cache.hit", 3)
        obs.observe("queue", 1.5)
    tracer.finish()
    tracer.finish()  # idempotent
    metrics = [e for e in sink.events if e["ph"] == "metric"]
    assert len(metrics) == 2
    assert {e["name"] for e in metrics} == {"cache.hit", "queue"}


def test_sample_emits_event_and_histogram():
    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.activate():
        obs.sample("cost", 10.0, step=1)
    samples = [e for e in sink.events if e["ph"] == "sample"]
    assert samples[0]["value"] == 10.0 and samples[0]["attrs"] == {"step": 1}
    assert tracer.metrics.histogram("cost").count == 1


# -- sinks ----------------------------------------------------------------


def test_null_sink_drops_everything():
    tracer = Tracer(NullSink())
    with tracer.activate():
        with obs.span("x"):
            pass
    tracer.finish()  # nothing to assert: must simply not fail


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(JsonlSink(path))
    with tracer.activate():
        with obs.span("a"):
            with obs.span("b"):
                pass
        obs.incr("n", 4)
    tracer.finish()
    events = load_events(path)
    assert [e["ph"] for e in events] == ["span", "span", "metric"]
    # JSONL span order is completion order: b closes before a
    assert [e["name"] for e in events[:2]] == ["b", "a"]


def test_load_events_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ph": "span"}\nnot json\n')
    with pytest.raises(ValueError, match="invalid trace line"):
        load_events(path)


def test_chrome_sink_is_valid_trace_event_json(tmp_path):
    path = tmp_path / "trace.json"
    tracer = Tracer(ChromeTraceSink(path))
    with tracer.activate():
        with obs.span("stage", k=1):
            obs.sample("overuse", 3.0)
    tracer.finish()
    data = json.loads(path.read_text())
    assert isinstance(data, list) and data
    phs = {e["ph"] for e in data}
    assert "X" in phs and "C" in phs
    for event in data:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        assert event["ts"] >= 0.0


# -- collect (worker capture + merge) -------------------------------------


def _traced_workload():
    with obs.span("root", unit=1):
        with obs.span("leaf"):
            pass
    obs.incr("worker.count", 2)
    return 42


def test_capture_returns_value_and_events():
    value, events = obs.capture(_traced_workload)
    assert value == 42
    names = [e["name"] for e in events if e["ph"] == "span"]
    assert sorted(names) == ["leaf", "root"]
    assert any(e["ph"] == "metric" and e["name"] == "worker.count" for e in events)


def test_capture_ignores_inherited_span_stack():
    """A forked worker inherits the parent's span stack; capture must
    start clean or worker roots parent onto foreign ids (which collide
    with the worker's own id space and self-parent after merge)."""
    outer = Tracer(InMemorySink())
    with outer.activate():
        with outer.span("engine.run"):
            _, events = obs.capture(_traced_workload)
    root = next(e for e in events if e["ph"] == "span" and e["name"] == "root")
    assert root["parent"] is None
    _, events = obs.capture(_traced_workload)
    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.activate():
        with tracer.span("engine.task") as task:
            pass
        obs.merge(tracer, events, parent_id=task.span_id)
    by_name = {e["name"]: e for e in _spans(sink)}
    assert by_name["root"]["parent"] == by_name["engine.task"]["id"]
    assert by_name["leaf"]["parent"] == by_name["root"]["id"]
    assert len({e["id"] for e in _spans(sink)}) == 3
    # worker metrics merged into the parent registry, not re-emitted
    assert tracer.metrics.counter("worker.count").value == 2
    assert not [e for e in sink.events if e["ph"] == "metric"]


# -- report ---------------------------------------------------------------


def _make_trace():
    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.activate():
        with obs.span("flow"):
            with obs.span("stage", n=1):
                pass
            with obs.span("stage", n=0):
                pass
    tracer.finish()
    return sink.events


def test_span_tree_canonical_sorts_children():
    tree = span_tree(_make_trace())
    assert len(tree) == 1 and tree[0]["name"] == "flow"
    children = tree[0]["children"]
    assert [c["attrs"]["n"] for c in children] == [0, 1]  # attr-sorted


def test_canonical_tree_blob_ignores_timing_and_ids():
    blob_a = canonical_tree_blob(_make_trace())
    blob_b = canonical_tree_blob(_make_trace())
    assert blob_a == blob_b


def test_summarize_reports_self_time_and_metrics():
    events = _make_trace()
    text = summarize(events)
    assert "flow" in text and "stage" in text
    assert "span" in text and "count" in text
    # two 'stage' spans aggregate into one row
    row = next(line for line in text.splitlines() if line.startswith("stage"))
    assert row.split()[1] == "2"
    with pytest.raises(ValueError):
        summarize(events, sort="bogus")


def test_summarize_empty_trace():
    assert "(no spans)" in summarize([])


def test_cli_trace_report_lists_codec_counters(tmp_path):
    import io

    from repro.cli import main

    p = str(tmp_path / "run.jsonl")
    assert main(["run", "--model", "lenet5", "--part", "small", "--flow", "preimpl",
                 "--trace", p], out=io.StringIO()) == 0
    out = io.StringIO()
    assert main(["trace-report", p], out=out) == 0
    counters = {line.split()[0] for line in out.getvalue().splitlines()
                if line.split()[1:2] == ["counter"]}
    assert {"codec.fetch", "codec.encode"} <= counters
