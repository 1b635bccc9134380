"""Direct unit tests for repro._util and the stage-ledger span helper."""

from __future__ import annotations

import numpy as np

from repro._util import fresh_name, make_rng, manhattan
from repro.obs import InMemorySink, Tracer
from repro.obs.span import stage


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


# -- stage: a span that also fills a flow's stage ledger --------------------


def test_stage_accumulates_and_keeps_order():
    stages: dict[str, float] = {}
    with stage(stages, "b"):
        pass
    with stage(stages, "a"):
        pass
    first_b = stages["b"]
    with stage(stages, "b"):
        pass
    assert list(stages) == ["b", "a"]
    assert stages["b"] >= first_b >= 0.0


def test_stage_emits_span_when_traced():
    sink = InMemorySink()
    stages: dict[str, float] = {}
    with Tracer(sink).activate():
        with stage(stages, "outer"):
            with stage(stages, "inner"):
                pass
    spans = {e["name"]: e for e in sink.events if e["ph"] == "span"}
    assert set(spans) == {"outer", "inner"}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    # the ledger itself still accumulated
    assert set(stages) == {"outer", "inner"}
