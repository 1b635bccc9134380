#!/usr/bin/env python
"""Quickstart: pre-implement one component and stitch a small CNN.

Walks the paper's two phases end to end on a small device:

1. *Function optimization*: generate a convolution engine netlist,
   pre-implement it out-of-context in a tight pblock, inspect the locked
   checkpoint.
2. *Architecture optimization*: define a small CNN and let one
   pre-implemented flow run build its component database, then extract,
   match, place, stitch, and route the accelerator.  Compare against the
   monolithic vendor-style flow.

Run:  python examples/quickstart.py
"""

from repro import Device, parse_architecture
from repro.analysis import compare_productivity, format_table
from repro.rapidwright import PreImplementedFlow, candidate_anchors, preimplement
from repro.spec import FIG6_EFFORT
from repro.synth import gen_conv
from repro.vivado import VivadoFlow

ARCHITECTURE = """
# A small CNN architecture definition (paper Sec. IV-B1)
network quicknet
input  name=input channels=1 height=16 width=16
conv   name=conv1 filters=4 kernel=3
maxpool name=pool1 size=2
relu   name=relu1
flatten name=flatten
dense  name=fc1 units=10
"""


def main() -> None:
    device = Device.from_name("small")
    print(device.describe())

    # --- phase 1: pre-implement one component out of context ----------
    conv = gen_conv(1, 16, 16, 3, 4, rom_weights=True)
    result = preimplement(conv, device, effort="high", seed=0)
    print(f"\nOOC conv engine: {result.fmax_mhz:.1f} MHz in {result.pblock}")
    print(f"  cells={len(conv.cells)}, locked={all(c.locked for c in conv.cells.values())}")
    anchors = candidate_anchors(device, conv)
    print(f"  relocatable to {len(anchors)} anchors on {device.name}")

    # --- phase 2: build the full accelerator both ways ----------------
    net = parse_architecture(ARCHITECTURE)
    baseline = VivadoFlow(device, effort=FIG6_EFFORT["baseline"], seed=0).run(
        net, rom_weights=True)
    flow = PreImplementedFlow(device, component_effort=FIG6_EFFORT["preimpl"], seed=0)
    ours = flow.run(net, rom_weights=True)

    report = compare_productivity(baseline, ours)
    print("\n" + format_table(
        ["flow", "Fmax", "compile time"],
        [
            ["monolithic (VivadoFlow)", f"{baseline.fmax_mhz:.1f} MHz",
             f"{baseline.runtime_s:.2f} s"],
            ["pre-implemented", f"{ours.fmax_mhz:.1f} MHz", f"{ours.runtime_s:.2f} s"],
        ],
        title="quicknet: monolithic vs pre-implemented",
    ))
    print(f"\nproductivity: {report.summary()}")
    stitch = ours.extras["stitch"]
    print(f"slowest component bound: {stitch.slowest_component_mhz:.1f} MHz")
    for record in stitch.records:
        print(f"  {record.name:<18} {record.fmax_ooc_mhz:6.1f} MHz @ anchor {record.anchor}")


if __name__ == "__main__":
    main()
