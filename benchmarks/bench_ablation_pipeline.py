"""Ablation — critical-path pipelining (Fmax vs latency trade-off).

Paper Sec. V-E: "inserting pipeline elements such as FFs on the critical
path improves the timing performance, while increasing the overall
latency."  We stitch LeNet, then run the phys-opt pipelining pass at an
aggressive target and measure both effects.
"""

from repro import Device, lenet5
from repro.analysis import format_table, library_parallelism, ratio_str, simulate_stream
from repro.cnn import group_components
from repro.rapidwright import PreImplementedFlow

from conftest import SEED, show


def _run(device):
    flow = PreImplementedFlow(device, component_effort="high", seed=SEED)
    plain = flow.run(lenet5(), rom_weights=True)
    db = plain.extras["database"]
    piped = flow.run(
        lenet5(), rom_weights=True, database=db,
        pipeline_target_mhz=plain.fmax_mhz * 1.2,
    )
    return plain, piped, db


def test_ablation_pipelining(benchmark, device):
    plain, piped, db = benchmark.pedantic(_run, args=(device,), rounds=1, iterations=1)
    comps = group_components(lenet5(), "layer")
    par_of = library_parallelism(db)
    lat_plain = simulate_stream(comps, plain.fmax_mhz, parallelism_of=par_of)
    regs = piped.design.metadata.get("pipeline_regs", 0)
    lat_piped = simulate_stream(comps, piped.fmax_mhz,
                                parallelism_of=par_of,
                                pipeline_regs=regs)
    show(format_table(
        ["variant", "Fmax", "pipeline regs", "latency"],
        [
            ["stitched", f"{plain.fmax_mhz:.1f} MHz", 0, f"{lat_plain.total_us:.2f} us"],
            ["stitched + phys-opt FFs", f"{piped.fmax_mhz:.1f} MHz", regs,
             f"{lat_piped.total_us:.2f} us"],
            ["delta", ratio_str(piped.fmax_mhz, plain.fmax_mhz), "-",
             ratio_str(lat_piped.total_us, lat_plain.total_us)],
        ],
        title="Ablation — critical-path pipelining (paper Sec. V-E)",
    ))
    # pipelining never hurts Fmax and adds cycles when registers land
    assert piped.fmax_mhz >= plain.fmax_mhz - 1e-6
    assert lat_piped.total_cycles >= lat_plain.total_cycles