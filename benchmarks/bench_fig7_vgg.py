"""Fig. 7 — performance exploration of VGG.

Per-component OOC Fmax/latency and the stitched result versus the
monolithic baseline.  Paper: baseline 200 MHz / 55.13 ms; components
300-475 MHz; "our work" 243 MHz (1.22x) at 56.67 ms (1.02x latency) —
the stitched design clocks higher but pays a small latency penalty from
pipeline registers inserted across fabric discontinuities.
"""

from repro.analysis import format_table, library_parallelism, ratio_str, simulate_stream
from repro.cnn import group_components, vgg16

from conftest import show

PAPER = {"baseline_mhz": 200.0, "ours_mhz": 243.0, "ratio": 1.22,
         "baseline_ms": 55.13, "ours_ms": 56.67,
         "component_band": (300.0, 475.0)}


def test_fig7(benchmark, device, vgg_pair):
    pair = vgg_pair
    comps = group_components(vgg16(), "block")
    stitch = pair.ours.extras["stitch"]
    db = pair.database

    def build():
        par_of = library_parallelism(db)
        regs = pair.ours.design.metadata.get("pipeline_regs", 0)
        lat_ours = simulate_stream(comps, pair.ours.fmax_mhz,
                                   parallelism_of=par_of,
                                   pipeline_regs=regs)
        lat_base = simulate_stream(comps, pair.baseline.fmax_mhz, parallelism_of=par_of)
        return lat_ours, lat_base

    lat_ours, lat_base = benchmark.pedantic(build, rounds=1, iterations=1)

    rows = []
    for record, stage in zip(stitch.records, lat_ours.stages):
        rows.append([record.name, f"{record.fmax_ooc_mhz:.0f} MHz",
                     f"{stage.compute_cycles / lat_ours.fmax_mhz / 1e3:.3f} ms"])
    rows.append(["baseline (monolithic)", f"{pair.baseline.fmax_mhz:.0f} MHz",
                 f"{lat_base.total_ms:.2f} ms"])
    rows.append(["our work (stitched)", f"{pair.ours.fmax_mhz:.0f} MHz",
                 f"{lat_ours.total_ms:.2f} ms"])
    show(format_table(
        ["component", "Fmax", "latency"],
        rows,
        title=(
            "Fig. 7 — VGG performance exploration "
            f"(measured ratio {ratio_str(pair.ours.fmax_mhz, pair.baseline.fmax_mhz)}, "
            f"paper {PAPER['ratio']}x; paper baseline {PAPER['baseline_mhz']:.0f} MHz, "
            f"ours {PAPER['ours_mhz']:.0f} MHz)"
        ),
    ))
    # shape claims:
    assert pair.ours.fmax_mhz > pair.baseline.fmax_mhz          # stitched clocks higher
    assert pair.ours.fmax_mhz <= stitch.slowest_component_mhz + 1e-6
    assert lat_ours.total_ms >= lat_base.total_ms * 0.5          # no magic latency win
    # stitched-vs-baseline advantage stays in a plausible band around 1.22x
    ratio = pair.ours.fmax_mhz / pair.baseline.fmax_mhz
    assert 1.0 < ratio < 2.5