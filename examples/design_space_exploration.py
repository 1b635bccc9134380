#!/usr/bin/env python
"""Design-space exploration: the paper's Fig. 3 function-optimization loop.

The function-optimization phase is a DSE over sub-function
implementations ("Design space exploration to optimize sub-function
performance (Fmax, Area, Power)... Iteration to meet the constraints").
This example sweeps placement seeds, floorplan slack and pblock aspect
for LeNet-5's conv2 library component, trades Fmax against relocatability, builds a
component library from the winners, and renders the final floorplan.

Run:  python examples/design_space_exploration.py
"""

from repro import Device, lenet5
from repro.analysis import format_table, module_legend, render_floorplan
from repro.rapidwright import ComponentDatabase, PreImplementedFlow, explore_component
from repro.cnn import group_components


def main() -> None:
    device = Device.from_name("ku5p-like")
    net = lenet5()
    components = group_components(net, "layer")
    (conv2,) = [c for c in components if c.nodes == ["conv2"]]

    # --- sweep one component ------------------------------------------------
    print(f"exploring {conv2.name} (seeds x slack x aspect)...")
    result = explore_component(
        conv2,
        device,
        seeds=(0, 1, 2),
        slacks=(1.05, 1.4),
        heights=(None, 120),
        anchor_weight=0.0,
    )
    print(result.report())
    print(f"\nbest: {result.best.fmax_mhz:.1f} MHz in {result.best.pblock}")

    # --- same sweep, trading Fmax for relocatability -------------------------
    reuse = explore_component(
        conv2,
        device,
        seeds=(0, 1),
        slacks=(1.05, 1.4),
        heights=(None, 120),
        anchor_weight=0.5,   # each extra anchor is worth 0.5 MHz
    )
    best_t = result.best_trial
    reuse_t = reuse.best_trial
    print("\n" + format_table(
        ["objective", "Fmax", "anchors", "pblock area"],
        [
            ["max Fmax", f"{best_t.fmax_mhz:.1f} MHz", best_t.anchors, best_t.pblock_area],
            ["Fmax + reusability", f"{reuse_t.fmax_mhz:.1f} MHz", reuse_t.anchors,
             reuse_t.pblock_area],
        ],
        title="objective trade-off",
    ))

    # --- build the whole library with exploration, then stitch ---------------
    flow = PreImplementedFlow(device, component_effort="high", seed=0)
    database = ComponentDatabase(device)
    offline = database.build(
        components,
        rom_weights=True,
        explore={"seeds": (0, 1), "slacks": (1.15,)},
    )
    ours = flow.run(net, rom_weights=True, database=database)
    print(f"\nexplored library: {len(database)} checkpoints in {offline.run_s:.1f} s "
          f"-> stitched {ours.fmax_mhz:.1f} MHz")

    print("\nfloorplan (cf. paper Fig. 8):")
    print(render_floorplan(ours.design, device, width=100, height=25))
    print(module_legend(ours.design))


if __name__ == "__main__":
    main()
