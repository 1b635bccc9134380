"""Data-plane benchmark: database fetch off the columnar image vs its oracle.

One scenario, ``*_fetch``, run on a LeNet-scale and a VGG-scale
pre-implemented build (results keyed by name in ``BENCH_codec.json``):
``ComponentDatabase.fetch(sig, anchor)`` materializing every component
of the model at several legal anchors from the record's columnar image
(the string columns resolved once per signature and kept on the
record's image, then per copy one pass from the columns with the offset
arithmetic done on the arrays; ``fetch`` returns a block-backed design,
so each copy's ``cells`` are touched inside the timed region to make it
build them), versus the declared oracle — a fresh copy of the
checkpoint through :func:`repro.rapidwright.module.relocate_reference`
(serialize, parse, shift: the dict-codec round trip).  Every fetched copy is
asserted **bit-identical** to the oracle's (canonical JSON of
:func:`design_to_dict`) before anything is timed.

The checkpoint *file* round trip is not timed here: its bit-identity is
``tests/test_property_codec.py`` and its cost the ``netlist.encode_design``
/ ``rapidwright.database.fetch`` rows of the end-to-end ledger.

Timed sections are measured interleaved (opt, ref, opt, ref, ...) and
reported as the min over repetitions.  ``--check BASELINE`` compares
speedup ratios against a committed baseline (fails on a >20 %
regression) and enforces the acceptance floor on the VGG-scale
workload: >=3.5x on ``vgg16_fetch`` (5x while the reference side also
parsed a stored dict payload, 0.46 s of its 1.14 s; the oracle alone
measures 4.2-4.6x and 3.5x is the same 0.78 share of the baseline).
``--quick`` cuts repetitions but keeps all workloads — the VGG build is
setup-bound at component effort "low", so the floor stays gated in CI.

Usage::

    python benchmarks/bench_codec.py [--quick] [--out BENCH_codec.json]
    python benchmarks/bench_codec.py --quick --check benchmarks/BENCH_codec.json

The results JSON is written only where ``--out`` names it.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cnn import group_components, lenet5, vgg16
from repro.fabric import Device
from repro.netlist.checkpoint import design_to_dict
from repro.rapidwright import ComponentDatabase
from repro.rapidwright.module import candidate_anchors, relocate_reference

from _harness import check_against, interleaved_min

SEED = 0
FETCH_SPEEDUP_FLOOR = 3.5  # acceptance gate for vgg16_fetch in --check mode
ANCHORS_PER_COMPONENT = 6


def _canon(design) -> str:
    """Canonical JSON of a design; tuples and lists collapse together."""
    return json.dumps(design_to_dict(design), sort_keys=True, default=list)


# -- workload construction -----------------------------------------------------


def build_workload(model_fn, part, granularity, rom_weights):
    """Pre-implemented build: a model's components and their database."""
    device = Device.from_name(part)
    components = group_components(model_fn(), granularity)
    db = ComponentDatabase(device)
    db.build(components, rom_weights=rom_weights, effort="low", seed=SEED)
    return {"device": device, "db": db, "components": components}


# -- scenario: database fetch + relocate ---------------------------------------


def bench_fetch(name, w, reps):
    device, db = w["device"], w["db"]
    jobs = []  # (signature, anchor)
    for comp in w["components"]:
        anchors = candidate_anchors(device, db.footprint(comp.signature))
        jobs.extend((comp.signature, a) for a in anchors[:ANCHORS_PER_COMPONENT])

    # Identity gate before any timing: every fetched copy must match the
    # relocate_reference oracle replaying the same move.
    for sig, anchor in jobs:
        fast = db.fetch(sig, anchor, device=device)
        ref = relocate_reference(db.get(sig), device, anchor)
        assert _canon(fast) == _canon(ref), \
            f"{name}: fetch{sig, anchor} diverged from relocate_reference"

    def fast_fetch():
        for sig, anchor in jobs:
            # fetch defers the objects to the first access; the oracle builds
            # them, so ask for them here or the gate times a no-op against it
            len(db.fetch(sig, anchor, device=device).cells)

    def ref_fetch():
        for sig, anchor in jobs:
            relocate_reference(db.get(sig), device, anchor)

    opt_s, ref_s = interleaved_min(fast_fetch, ref_fetch, reps)
    return {
        "components": len(w["components"]),
        "copies": len(jobs),
        "opt_s": round(opt_s, 4),
        "ref_s": round(ref_s, 4),
        "speedup": round(ref_s / opt_s, 3),
    }


# -- harness -------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (all workloads still run)")
    parser.add_argument("--out", default=None,
                        help="where to write the results JSON (not written without it)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail if speedups regress >20%% vs this baseline")
    args = parser.parse_args(argv)

    floors = {"vgg16_fetch": FETCH_SPEEDUP_FLOOR}
    plan = [
        ("lenet5", lenet5, "small", "layer", True, 3 if args.quick else 7),
        ("vgg16", vgg16, "ku5p-like", "block", False, 3 if args.quick else 7),
    ]
    results = {"schema": 1, "quick": args.quick, "workloads": {}}
    for name, model_fn, part, granularity, rom_weights, reps in plan:
        print(f"building {name} workload...")
        w = build_workload(model_fn, part, granularity, rom_weights)
        print(f"benchmarking {name} ({reps} reps)...")
        results["workloads"][f"{name}_fetch"] = bench_fetch(name, w, reps)

    print(json.dumps(results, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.check:
        print(f"checking against {args.check} (tolerance 20%)")
        failures = check_against(results, args.check, floors)
        if failures:
            print(f"FAIL: speedup regression in: {', '.join(failures)}")
            return 1
        print("baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
