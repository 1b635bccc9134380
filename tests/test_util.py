"""Direct unit tests for repro._util (previously only covered indirectly)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import StageTimer, fresh_name, make_rng, manhattan
from repro.obs import InMemorySink, Tracer


# -- make_rng -------------------------------------------------------------


def test_make_rng_from_int_is_deterministic():
    assert make_rng(7).integers(0, 1000) == make_rng(7).integers(0, 1000)


def test_make_rng_none_defaults_to_seed_zero():
    assert make_rng(None).integers(0, 1000) == make_rng(0).integers(0, 1000)


def test_make_rng_passes_generator_through():
    gen = np.random.default_rng(3)
    assert make_rng(gen) is gen


# -- fresh_name / manhattan ----------------------------------------------


def test_fresh_name_monotonic_per_prefix():
    a = fresh_name("utiltest")
    b = fresh_name("utiltest")
    assert a != b
    assert int(b.rsplit("_", 1)[1]) == int(a.rsplit("_", 1)[1]) + 1


def test_manhattan():
    assert manhattan(0, 0, 3, 4) == 7
    assert manhattan(5, 5, 5, 5) == 0
    assert manhattan(2, 7, 4, 1) == manhattan(4, 1, 2, 7)


# -- StageTimer -----------------------------------------------------------


def test_stage_accumulates_and_keeps_order():
    timer = StageTimer()
    with timer.stage("b"):
        pass
    with timer.stage("a"):
        pass
    with timer.stage("b"):
        pass
    assert timer.order == ["b", "a"]
    assert set(timer.stages) == {"a", "b"}
    assert timer.total == pytest.approx(timer.stages["a"] + timer.stages["b"])


def test_total_falls_back_to_substages_only():
    timer = StageTimer()
    timer.add("x/sub", 1.0)
    assert timer.total == 1.0


def test_report_lists_all_stages():
    timer = StageTimer()
    timer.add("synth", 1.0)
    timer.add("route", 0.5)
    report = timer.report()
    assert "synth" in report and "route" in report and "total" in report


def test_stage_emits_span_when_traced():
    sink = InMemorySink()
    timer = StageTimer()
    with Tracer(sink).activate():
        with timer.stage("outer"):
            with timer.stage("inner"):
                pass
    spans = {e["name"]: e for e in sink.events if e["ph"] == "span"}
    assert set(spans) == {"outer", "inner"}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    # the timer itself still accumulated
    assert set(timer.stages) == {"outer", "inner"}
