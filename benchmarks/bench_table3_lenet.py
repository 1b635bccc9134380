"""Table III — performance exploration of LeNet.

Per-component OOC Fmax and latency, the monolithic full-network numbers,
and the stitched result.  Paper: conv1 562 MHz / pool1 633 / conv2 475 /
pool2 588 / fc1 497 / fc2 543; full network 375 MHz; "our work" 437 MHz,
upper-bounded by the slowest component; conv2 slower than conv1 because
of its higher parameter count.
"""

from repro.analysis import format_table, library_parallelism, ratio_str, simulate_stream
from repro.cnn import group_components, lenet5

from conftest import show

#: Paper Table III per-component frequency (MHz).
PAPER_MHZ = {
    "conv1": 562, "pool1": 633, "conv2": 475, "pool2": 588,
    "fc1": 497, "fc2": 543, "full": 375, "ours": 437,
}


def test_table3(benchmark, device, lenet_pair):
    pair = lenet_pair
    comps = group_components(lenet5(), "layer")
    stitch = pair.ours.extras["stitch"]
    db = pair.database

    def build_rows():
        return simulate_stream(comps, pair.ours.fmax_mhz,
                               parallelism_of=library_parallelism(db))

    lat = benchmark.pedantic(build_rows, rounds=1, iterations=1)

    rows = []
    for record, comp, stage in zip(stitch.records, comps, lat.stages):
        head = comp.nodes[0]
        rows.append([
            "+".join(comp.nodes),
            f"{record.fmax_ooc_mhz:.0f}",
            str(PAPER_MHZ.get(head, "-")),
            f"{stage.compute_cycles / lat.fmax_mhz:.2f} us",
        ])
    rows.append(["full network (baseline)", f"{pair.baseline.fmax_mhz:.0f}",
                 str(PAPER_MHZ["full"]), "-"])
    rows.append(["our work (stitched)", f"{pair.ours.fmax_mhz:.0f}",
                 str(PAPER_MHZ["ours"]),
                 f"{lat.total_us:.2f} us total"])
    show(format_table(
        ["component", "Fmax meas (MHz)", "Fmax paper (MHz)", "latency meas"],
        rows,
        title=(
            "Table III — LeNet performance exploration "
            f"(stitched/baseline = {ratio_str(pair.ours.fmax_mhz, pair.baseline.fmax_mhz)})"
        ),
    ))

    by_head = {c.nodes[0]: r.fmax_ooc_mhz for c, r in zip(comps, stitch.records)}
    # shape claims from the paper's narrative:
    assert by_head["conv1"] > by_head["conv2"]          # more params -> slower
    assert by_head["fc2"] > by_head["fc1"]              # smaller FC is faster
    assert pair.ours.fmax_mhz > pair.baseline.fmax_mhz  # stitched wins
    assert pair.ours.fmax_mhz <= stitch.slowest_component_mhz + 1e-6
    # per-component latency ordering: conv2 dominates conv1 (Table III)
    lat_by_head = {c.nodes[0]: s.compute_cycles for c, s in zip(comps, lat.stages)}
    assert lat_by_head["conv2"] > lat_by_head["conv1"]