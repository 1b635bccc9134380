#!/usr/bin/env python
"""LeNet-5 accelerator: the paper's Table III experiment end to end.

Builds the classic LeNet-5 stream accelerator with both flows on the
calibrated big device, reports per-component Fmax, the stitched result,
the latency model and power.

Run:  python examples/lenet_accelerator.py
"""

from repro import Device, lenet5
from repro.analysis import compare_productivity, format_table, library_parallelism, simulate_stream
from repro.cnn import group_components
from repro.power import estimate_power
from repro.rapidwright import PreImplementedFlow
from repro.spec import FIG6_EFFORT
from repro.vivado import VivadoFlow


def main() -> None:
    device = Device.from_name("ku5p-like")
    net = lenet5()
    print(device.describe())
    print(f"network: {net.name}, {len(net.nodes)} layers, "
          f"{net.totals()['total_macs'] / 1e6:.2f} M MACs")

    # --- both flows -----------------------------------------------------
    baseline = VivadoFlow(device, effort=FIG6_EFFORT["baseline"], seed=0).run(
        net, rom_weights=True)
    flow = PreImplementedFlow(device, component_effort=FIG6_EFFORT["preimpl"], seed=0)
    ours = flow.run(net, rom_weights=True)

    comps = group_components(net, "layer")
    stitch = ours.extras["stitch"]
    par_of = library_parallelism(ours.extras["database"])
    latency = simulate_stream(comps, ours.fmax_mhz, parallelism_of=par_of)

    rows = []
    for record, comp, stage in zip(stitch.records, comps, latency.stages):
        rows.append(["+".join(comp.nodes), f"{record.fmax_ooc_mhz:.0f} MHz",
                     f"{stage.compute_cycles / latency.fmax_mhz:.2f} us"])
    rows.append(["full network (monolithic)", f"{baseline.fmax_mhz:.0f} MHz", "-"])
    rows.append(["our work (stitched)", f"{ours.fmax_mhz:.0f} MHz",
                 f"{latency.total_us:.2f} us"])
    print("\n" + format_table(["component", "Fmax", "latency"], rows,
                              title="LeNet-5 performance exploration (cf. Table III)"))

    print(f"\nproductivity: {compare_productivity(baseline, ours).summary()}")
    power_base = estimate_power(baseline.design, device, baseline.fmax_mhz)
    power_ours = estimate_power(ours.design, device, ours.fmax_mhz)
    print(f"power: baseline {power_base.summary()}")
    print(f"power: stitched {power_ours.summary()}")


if __name__ == "__main__":
    main()
