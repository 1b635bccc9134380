"""Extensions: performance exploration, floorplan rendering, stream simulation."""

import pytest

from repro.analysis import (
    module_legend,
    network_latency,
    render_floorplan,
    simulate_stream,
)
from repro.cnn import group_components
from repro.rapidwright import ComponentDatabase, PreImplementedFlow, explore_component
from repro.synth import gen_relu
from tests.conftest import make_tiny_cnn


# -- explore_component ------------------------------------------------------


def test_explore_returns_best_of_trials(small_device):
    result = explore_component(
        lambda: gen_relu(8), small_device, seeds=(0, 1, 2), efforts=("low",)
    )
    assert len(result.trials) == 3
    assert result.best.fmax_mhz == pytest.approx(result.best_trial.fmax_mhz)
    assert result.best.fmax_mhz >= max(t.fmax_mhz for t in result.trials) - 1e-9
    assert all(c.locked for c in result.best.design.cells.values())


def test_explore_early_exit_on_target(small_device):
    result = explore_component(
        lambda: gen_relu(8), small_device, seeds=(0, 1, 2, 3, 4),
        efforts=("low",), target_fmax_mhz=1.0,
    )
    assert len(result.trials) == 1  # first trial already meets 1 MHz


def test_explore_early_exit_skips_the_remaining_trials(small_device):
    designs = []

    def factory():
        designs.append(gen_relu(8))
        return designs[-1]

    explore_component(factory, small_device, seeds=(0, 1, 2, 3, 4),
                      efforts=("low",), target_fmax_mhz=1.0, jobs=1)
    assert len(designs) == 1  # the trials after the first are never evaluated


def test_explore_anchor_weight_prefers_relocatable(small_device):
    plain = explore_component(
        lambda: gen_relu(8), small_device, seeds=(0,), slacks=(1.05, 2.5),
        efforts=("low",), anchor_weight=0.0,
    )
    reuse = explore_component(
        lambda: gen_relu(8), small_device, seeds=(0,), slacks=(1.05, 2.5),
        efforts=("low",), anchor_weight=100.0,
    )
    assert reuse.best_trial.anchors >= plain.best_trial.anchors


def test_explore_report_and_empty_space(small_device):
    result = explore_component(lambda: gen_relu(4), small_device, seeds=(0,),
                               efforts=("low",))
    assert "fmax" in result.report()
    with pytest.raises(ValueError, match="empty"):
        explore_component(lambda: gen_relu(4), small_device, seeds=())


def test_database_build_with_exploration(small_device):
    comps = group_components(make_tiny_cnn(), "layer")
    plain_db = ComponentDatabase(small_device)
    plain_db.build(comps, rom_weights=True, effort="low", seed=0)
    explored_db = ComponentDatabase(small_device)
    explored_db.build(comps, rom_weights=True,
                      explore={"seeds": (0, 1), "efforts": ("low",)})
    assert len(explored_db) == len(plain_db)
    # the explored library is at least as fast on every component
    for comp in comps:
        assert explored_db.fmax_of(comp.signature) >= plain_db.fmax_of(comp.signature) - 1e-9


# -- floorplan rendering ------------------------------------------------------


@pytest.fixture(scope="module")
def stitched(small_device):
    flow = PreImplementedFlow(small_device, component_effort="low", seed=0)
    return flow.run(make_tiny_cnn(), rom_weights=True)


def test_floorplan_renders_all_modules(small_device, stitched):
    art = render_floorplan(stitched.design, small_device, width=60, height=20)
    lines = art.splitlines()
    expected_w = min(60, small_device.ncols)
    expected_h = min(20, small_device.nrows)
    assert len(lines) == expected_h
    assert all(len(l) == expected_w for l in lines)
    # one symbol per module appears somewhere
    symbols = {"A", "B", "C"}
    assert symbols <= set("".join(lines))
    assert "|" in art  # the I/O column shows up


def test_floorplan_legend(stitched):
    legend = module_legend(stitched.design)
    for module in stitched.design.modules():
        assert module in legend


# -- stream simulation -----------------------------------------------------------


def test_simulation_matches_latency_model():
    comps = group_components(make_tiny_cnn(), "layer")
    par = lambda c: {"pf": 2, "pk": 3}
    sim = simulate_stream(comps, 400.0, parallelism_of=par)
    lat = network_latency(comps, 400.0, parallelism_of=par)
    assert sim.total_cycles == lat.total_cycles
    assert sim.total_us == pytest.approx(lat.total_us)


def test_streaming_overlap_is_faster():
    comps = group_components(make_tiny_cnn(), "layer")
    par = lambda c: {"pf": 2, "pk": 3}
    sf = simulate_stream(comps, 400.0, parallelism_of=par)
    st = simulate_stream(comps, 400.0, parallelism_of=par, mode="streaming")
    assert st.total_cycles < sf.total_cycles
    # streaming cannot beat the slowest single stage
    slowest = max(s.compute_cycles for s in sf.stages)
    assert st.total_cycles >= slowest


def test_simulation_traces_are_causal():
    comps = group_components(make_tiny_cnn(), "layer")
    for mode in ("store_forward", "streaming"):
        sim = simulate_stream(comps, 400.0, mode=mode)
        for prev, cur in zip(sim.stages, sim.stages[1:]):
            assert cur.start_cycle >= prev.start_cycle
            assert cur.finish_cycle >= prev.start_cycle
        for stage in sim.stages:
            assert stage.finish_cycle - stage.start_cycle >= stage.compute_cycles or \
                sim.mode == "store_forward"
            assert stage.stall_cycles >= 0


def test_simulation_validation():
    comps = group_components(make_tiny_cnn(), "layer")
    with pytest.raises(ValueError, match="fmax"):
        simulate_stream(comps, 0.0)
    with pytest.raises(ValueError, match="unknown mode"):
        simulate_stream(comps, 100.0, mode="warp")
