#!/usr/bin/env python
"""VGG-16 accelerator: the paper's Fig. 7/8 experiment end to end.

Builds VGG-16 at the paper's 12-component "block" granularity with
streamed off-chip weights, places the component library across the die
(Fig. 8), and closes timing with phys-opt pipeline registers across
fabric discontinuities (Sec. V-E).

This is the heavyweight example: both flows at VGG-16 scale.

Run:  python examples/vgg16_accelerator.py
"""

from repro import Device, vgg16
from repro.analysis import compare_productivity, format_table, library_parallelism, simulate_stream
from repro.cnn import group_components
from repro.rapidwright import PreImplementedFlow
from repro.spec import FIG6_EFFORT
from repro.vivado import VivadoFlow


def main() -> None:
    device = Device.from_name("ku5p-like")
    net = vgg16()
    print(device.describe())
    print(f"network: {net.name}, {net.totals()['total_macs'] / 1e9:.1f} G MACs")

    # --- both flows ------------------------------------------------------
    print("\nrunning monolithic flow (this is the slow one)...")
    baseline = VivadoFlow(device, effort=FIG6_EFFORT["baseline"], seed=0).run(
        net, granularity="block", rom_weights=False
    )
    print(f"baseline: {baseline.fmax_mhz:.1f} MHz in {baseline.runtime_s:.1f} s")

    flow = PreImplementedFlow(device, component_effort=FIG6_EFFORT["preimpl"], seed=0)
    ours = flow.run(net, granularity="block", rom_weights=False, pipeline_target_mhz="auto")
    database = ours.extras["database"]
    print(f"component library built offline in {ours.extras['offline_s']:.1f} s "
          f"({len(database)} checkpoints)")
    regs = ours.design.metadata.get("pipeline_regs", 0)
    print(f"pre-implemented: {ours.fmax_mhz:.1f} MHz in {ours.runtime_s:.2f} s "
          f"(+{regs} pipeline FFs)")

    # --- Fig. 7-style table ----------------------------------------------
    comps = group_components(net, "block")
    stitch = ours.extras["stitch"]
    par_of = library_parallelism(database)
    latency = simulate_stream(comps, ours.fmax_mhz,
                              parallelism_of=par_of,
                              pipeline_regs=regs)
    rows = [[r.name, f"{r.fmax_ooc_mhz:.0f} MHz", str(r.anchor)] for r in stitch.records]
    rows.append(["baseline (monolithic)", f"{baseline.fmax_mhz:.0f} MHz", "-"])
    rows.append(["our work (stitched+piped)", f"{ours.fmax_mhz:.0f} MHz",
                 f"{latency.total_ms:.1f} ms latency"])
    print("\n" + format_table(["component", "Fmax", "anchor / note"], rows,
                              title="VGG-16 performance exploration (cf. Fig. 7/8)"))
    print(f"\nratio vs baseline: {ours.fmax_mhz / baseline.fmax_mhz:.2f}x "
          f"(paper: 1.22x)")
    print(f"productivity: {compare_productivity(baseline, ours).summary()}")


if __name__ == "__main__":
    main()
