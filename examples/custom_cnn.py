#!/usr/bin/env python
"""Custom CNN: from architecture-definition text to an accelerator.

Shows the user-facing path of the paper's architecture-optimization
phase: write a CNN architecture definition (Sec. IV-B1), inspect its
component decomposition and checkpoint reuse, and build the accelerator.

Run:  python examples/custom_cnn.py
"""

from repro import Device, parse_architecture
from repro.analysis import format_table
from repro.cnn import group_components, render_architecture
from repro.rapidwright import PreImplementedFlow

# A deliberately repetitive network: conv2/conv3 share one checkpoint.
ARCHITECTURE = """
network edgenet
input   name=input  channels=3 height=32 width=32
conv    name=conv1  filters=8 kernel=3 padding=same
relu    name=relu1
maxpool name=pool1  size=2
conv    name=conv2  filters=8 kernel=3 padding=same
relu    name=relu2
conv    name=conv3  filters=8 kernel=3 padding=same
relu    name=relu3
maxpool name=pool2  size=2
flatten name=flatten
dense   name=fc1    units=32
relu    name=relu4
dense   name=fc2    units=10
"""


def main() -> None:
    device = Device.from_name("ku5p-like")
    net = parse_architecture(ARCHITECTURE)
    print(f"parsed {net.name}: {len(net.nodes)} layers")
    print(f"round-trip check: {len(parse_architecture(render_architecture(net)).nodes)} layers")

    # --- component decomposition and reuse --------------------------------
    comps = group_components(net, "layer")
    signatures = {}
    rows = []
    for comp in comps:
        first = signatures.setdefault(comp.signature, comp.name)
        rows.append([
            comp.name, comp.kind, "->".join(map(str, comp.in_shape)),
            "reuses " + first if first != comp.name else "new checkpoint",
        ])
    print("\n" + format_table(["component", "kind", "in shape", "checkpoint"],
                              rows, title="component extraction + matching"))

    # --- accelerator generation ------------------------------------------
    flow = PreImplementedFlow(device, component_effort="high", seed=0)
    result = flow.run(net, rom_weights=True)
    print(f"\nlibrary: {len(result.extras['database'])} unique checkpoints for "
          f"{len(comps)} components (offline build {result.extras['offline_s']:.2f} s)")
    print(f"accelerator: {result.fmax_mhz:.1f} MHz in {result.runtime_s:.3f} s, "
          f"routed {result.route.routed} stitch connections")


if __name__ == "__main__":
    main()
