"""Ablation — component granularity exploration (paper Sec. IV-A1).

The flow's first design decision is the pre-implementation granularity.
``layer`` granularity (conv / pool+relu / fc) maximizes checkpoint reuse
across networks; ``block`` granularity (whole conv stacks, as in the
paper's VGG, Fig. 7/8) reduces stitching overhead but yields larger,
less reusable checkpoints.  We compare both on a conv-heavy network.
"""

from repro import Device
from repro.analysis import format_table
from repro.cnn import DFG, Conv2D, Dense, Flatten, Input, MaxPool2D, ReLU, group_components
from repro.rapidwright import PreImplementedFlow
from repro.synth import synthesize_network

from conftest import SEED, show


def _deep_net() -> DFG:
    """A VGG-flavoured chain with repeated identical conv layers."""
    layers = [Input("input", shape=(4, 32, 32))]
    for i in range(1, 5):
        layers.append(Conv2D(f"conv{i}", filters=4, kernel=3, padding="same"))
        layers.append(ReLU(f"relu{i}"))
    layers += [MaxPool2D("pool", size=2), Flatten("flatten"), Dense("fc", units=8)]
    return DFG.sequential("deepnet", layers)


def test_ablation_granularity(benchmark, device):
    def build():
        out = {}
        for granularity in ("layer", "block"):
            net = _deep_net()
            comps = group_components(net, granularity)
            synth = synthesize_network(net, granularity=granularity, rom_weights=True)
            flow = PreImplementedFlow(device, component_effort="high", seed=SEED)
            result = flow.run(net, granularity=granularity, rom_weights=True)
            out[granularity] = (comps, synth, result.extras["offline_s"], result)
        return out

    out = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for granularity, (comps, synth, offline_s, result) in out.items():
        rows.append([
            granularity,
            len(comps),
            len(synth.unique_designs),
            f"{synth.reuse_factor:.2f}",
            f"{offline_s:.2f} s",
            f"{result.runtime_s:.3f} s",
            f"{result.fmax_mhz:.1f} MHz",
        ])
    show(format_table(
        ["granularity", "components", "unique DCPs", "reuse", "offline build",
         "flow time", "Fmax"],
        rows, title="Ablation — granularity exploration (layer vs block)",
    ))
    layer = out["layer"]
    block = out["block"]
    # layer granularity reuses the replicated conv checkpoint...
    assert layer[1].reuse_factor > block[1].reuse_factor
    assert len(layer[1].unique_designs) < len(layer[0])
    # ...while block granularity stitches fewer, bigger components
    assert len(block[0]) < len(layer[0])