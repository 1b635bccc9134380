"""Extensions: performance exploration, floorplan rendering, stream simulation."""

import pytest

from repro.analysis import module_legend, render_floorplan, simulate_stream
from repro.cnn import DFG, Input, ReLU, group_components, lenet5, vgg16
from repro.netlist.codec import encode_design
from repro.rapidwright import ComponentDatabase, PreImplementedFlow, explore_component
from repro.rapidwright.ooc import preimplement
from repro.synth import generate_component
from tests.conftest import make_tiny_cnn


# -- explore_component ------------------------------------------------------


def _relu(channels: int):
    """A one-ReLU component: the smallest design a sweep can tune."""
    (comp,) = group_components(
        DFG.sequential("relu", [Input("input", shape=(channels, 4, 4)), ReLU("relu1")])
    )
    return comp


def test_explore_returns_best_of_trials(small_device):
    result = explore_component(
        _relu(8), small_device, seeds=(0, 1, 2), effort="low"
    )
    assert len(result.trials) == 3
    assert result.best.fmax_mhz == pytest.approx(result.best_trial.fmax_mhz)
    assert result.best.fmax_mhz >= max(t.fmax_mhz for t in result.trials) - 1e-9
    assert all(c.locked for c in result.best.design.cells.values())


def test_explore_early_exit_on_target(small_device):
    result = explore_component(
        _relu(8), small_device, seeds=(0, 1, 2, 3, 4),
        effort="low", target_fmax_mhz=1.0,
    )
    assert len(result.trials) == 1  # first trial already meets 1 MHz


def test_explore_early_exit_skips_the_remaining_trials(small_device, monkeypatch):
    import repro.rapidwright.explore as explore

    generated = []

    def counting(comp, **kwargs):
        generated.append(comp)
        return generate_component(comp, **kwargs)

    monkeypatch.setattr(explore, "generate_component", counting)
    explore_component(_relu(8), small_device, seeds=(0, 1, 2, 3, 4),
                      effort="low", target_fmax_mhz=1.0, jobs=1)
    assert len(generated) == 1  # the trials after the first are never evaluated


def test_explore_anchor_weight_prefers_relocatable(small_device):
    plain = explore_component(
        _relu(8), small_device, seeds=(0,), slacks=(1.05, 2.5),
        effort="low", anchor_weight=0.0,
    )
    reuse = explore_component(
        _relu(8), small_device, seeds=(0,), slacks=(1.05, 2.5),
        effort="low", anchor_weight=100.0,
    )
    assert reuse.best_trial.anchors >= plain.best_trial.anchors


def test_a_one_point_sweep_is_a_bare_preimplement_at_its_effort(small_device):
    """The library build's sweep: one seed, the default slack and height,
    and the build's effort — the design, byte for byte, that
    ``preimplement`` makes at that effort."""
    (comp,) = [c for c in group_components(make_tiny_cnn(), "layer") if c.nodes == ["conv1"]]
    for effort in ("low", "high"):
        result = explore_component(comp, small_device, seeds=(3,), effort=effort)
        bare = preimplement(generate_component(comp), small_device, effort=effort, seed=3)
        assert encode_design(result.best.design) == encode_design(bare.design)
        assert result.best.fmax_mhz == bare.fmax_mhz
        assert [t.anchors for t in result.trials] == [None]


def test_explore_report_and_empty_space(small_device):
    result = explore_component(_relu(4), small_device, seeds=(0,),
                               effort="low")
    assert "fmax" in result.report()
    with pytest.raises(ValueError, match="empty"):
        explore_component(_relu(4), small_device, seeds=())


def test_database_build_with_exploration(small_device):
    comps = group_components(make_tiny_cnn(), "layer")
    plain_db = ComponentDatabase(small_device)
    plain_db.build(comps, rom_weights=True, effort="low", seed=0)
    explored_db = ComponentDatabase(small_device)
    explored_db.build(comps, rom_weights=True, effort="low", explore={"seeds": (0, 1)})
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


@pytest.mark.parametrize(("dfg", "granularity", "rom_weights", "cycles"), [
    pytest.param(lenet5, "layer", True, 13_549, id="lenet5"),
    pytest.param(vgg16, "block", False, 114_318_164, id="vgg16"),
])
def test_store_forward_cycles_are_pinned(dfg, granularity, rom_weights, cycles):
    """The paper's latency rows at each component's generator parallelism."""
    comps = group_components(dfg(), granularity)
    par = {}
    for comp in comps:
        if comp.signature not in par:
            design = generate_component(comp, rom_weights=rom_weights)
            par[comp.signature] = design.metadata["parallelism"]
    sim = simulate_stream(comps, 400.0, parallelism_of=lambda c: par[c.signature])
    assert sim.total_cycles == cycles
    assert sim.total_us == cycles / 400.0


def test_simulation_traces_are_causal():
    comps = group_components(make_tiny_cnn(), "layer")
    sim = simulate_stream(comps, 400.0)
    assert sim.stages[0].start_cycle == 0
    for prev, cur in zip(sim.stages, sim.stages[1:]):
        assert cur.start_cycle == prev.finish_cycle
    for stage in sim.stages:
        assert stage.finish_cycle - stage.start_cycle == stage.compute_cycles


def test_simulation_validation():
    comps = group_components(make_tiny_cnn(), "layer")
    with pytest.raises(ValueError, match="fmax"):
        simulate_stream(comps, 0.0)
