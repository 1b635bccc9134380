"""Ablation — replicated vs shared (Q-CLE) component architecture.

Paper Sec. III discusses Shen et al.'s partitioning, where Q < L
convolutional layer engines are time-multiplexed across the network's L
layers.  Our ``share_components=True`` mode builds that architecture from
the same checkpoint database: one physical engine per unique signature,
star-stitched through a pre-implemented scheduler.  The trade: fewer
resources, more latency (one pass per logical layer through shared
engines).
"""

from repro.analysis import format_table, library_parallelism, pct_str, simulate_stream
from repro.cnn import DFG, Conv2D, Dense, Flatten, Input, MaxPool2D, ReLU, group_components
from repro.rapidwright import PreImplementedFlow

from conftest import SEED, show


def _replicated_net() -> DFG:
    """Six layers, three of them one identical conv signature."""
    layers = [Input("input", shape=(4, 24, 24))]
    for i in range(1, 4):
        layers.append(Conv2D(f"conv{i}", filters=4, kernel=3, padding="same"))
        layers.append(ReLU(f"relu{i}"))
    layers += [MaxPool2D("pool", size=2), Flatten("flat"), Dense("fc", units=8)]
    return DFG.sequential("sharenet", layers)


def test_ablation_sharing(benchmark, device):
    def build():
        net = _replicated_net()
        flow = PreImplementedFlow(device, component_effort="high", seed=SEED)
        replicated = flow.run(net, rom_weights=True)
        db = replicated.extras["database"]
        shared = flow.run(net, rom_weights=True, database=db, share_components=True)
        return net, db, replicated, shared

    net, db, replicated, shared = benchmark.pedantic(build, rounds=1, iterations=1)
    comps = group_components(net, "layer")
    par_of = library_parallelism(db)
    lat_rep = simulate_stream(comps, replicated.fmax_mhz, parallelism_of=par_of)
    # shared engines process every logical layer sequentially through the
    # scheduler: same per-layer cycles at the shared design's clock
    lat_shr = simulate_stream(comps, shared.fmax_mhz, parallelism_of=par_of)
    ur = replicated.design.resource_usage()
    us = shared.design.resource_usage()
    show(format_table(
        ["architecture", "physical engines", "LUT", "DSP", "Fmax", "latency"],
        [
            ["replicated (paper)", len(comps), ur["LUT"], ur.get("DSP48E2", 0),
             f"{replicated.fmax_mhz:.0f} MHz", f"{lat_rep.total_us:.1f} us"],
            ["shared (Q-CLE)", shared.design.metadata["n_physical"],
             us["LUT"], us.get("DSP48E2", 0),
             f"{shared.fmax_mhz:.0f} MHz", f"{lat_shr.total_us:.1f} us"],
            ["delta", "-", pct_str(1 - us["LUT"] / ur["LUT"]) + " saved",
             pct_str(1 - us.get("DSP48E2", 1) / max(ur.get("DSP48E2", 1), 1)) + " saved",
             "-", "-"],
        ],
        title="Ablation — replicated vs shared component architecture",
    ))
    # sharing saves resources...
    assert us["LUT"] < ur["LUT"]
    assert us.get("DSP48E2", 0) <= ur.get("DSP48E2", 0)
    assert shared.design.metadata["n_physical"] < len(comps)
    # ...but never improves per-pass latency (same engines, extra hops)
    assert lat_shr.total_us >= lat_rep.total_us * 0.8
    # the simulation covers every logical layer
    assert len(lat_shr.stages) == len(comps)