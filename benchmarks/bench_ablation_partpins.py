"""Ablation — strategic port planning (partition pins).

Paper Sec. IV-A2: "Failure to plan the location of the ports of the
pre-implemented modules may result in long compilation time, poor
performance, and high congestion."  We pre-implement the LeNet component
library with and without port planning and compare the stitched result.
"""

from repro import Device, lenet5
from repro.analysis import format_table, ratio_str
from repro.rapidwright import PreImplementedFlow

from conftest import SEED, show


def _run(device, plan_ports: bool):
    flow = PreImplementedFlow(
        device, component_effort="high", seed=SEED, plan_ports=plan_ports
    )
    return flow.run(lenet5(), rom_weights=True)


def test_ablation_port_planning(benchmark, device):
    planned, unplanned = benchmark.pedantic(
        lambda: (_run(device, True), _run(device, False)), rounds=1, iterations=1
    )
    wl_planned = planned.route.wirelength
    wl_unplanned = unplanned.route.wirelength
    show(format_table(
        ["variant", "stitched Fmax", "inter-route wirelength", "route iters"],
        [
            ["with port planning", f"{planned.fmax_mhz:.1f} MHz", wl_planned,
             planned.route.iterations],
            ["without port planning", f"{unplanned.fmax_mhz:.1f} MHz", wl_unplanned,
             unplanned.route.iterations],
            ["delta", ratio_str(planned.fmax_mhz, unplanned.fmax_mhz),
             ratio_str(wl_unplanned, max(wl_planned, 1)), "-"],
        ],
        title="Ablation — partition-pin port planning (paper Sec. IV-A2)",
    ))
    # planned ports keep boundary cells on pblock edges: inter-component
    # wires must not get longer, and Fmax must not get better by skipping
    # the planning step
    assert planned.fmax_mhz >= unplanned.fmax_mhz * 0.97
    assert wl_planned <= wl_unplanned * 1.1
