"""Timing and baseline-gate helpers shared by the kernel benchmarks.

``bench_hotpaths.py``, ``bench_sta.py`` and ``bench_codec.py`` time an
optimised kernel against its reference with :func:`interleaved_min` and
gate the resulting speedup ratios with :func:`check_against`.
"""

from __future__ import annotations

import gc
import json
import time

__all__ = ["check_against", "interleaved_min"]


def interleaved_min(fn_opt, fn_ref, reps, fresh=None):
    """Min wall time of each variant over *reps* interleaved rounds.

    Rounds run (opt, ref, opt, ref, ...) so drift hits both sides.  With
    *fresh*, each call is ``fn(fresh())`` and building the input is not
    timed.  Garbage is collected before every timed call and the
    collector stays off during it, so neither side pays for the other's
    garbage.
    """
    best = [float("inf"), float("inf")]
    was_enabled = gc.isenabled()
    try:
        for _ in range(reps):
            for i, fn in enumerate((fn_opt, fn_ref)):
                args = () if fresh is None else (fresh(),)
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                fn(*args)
                best[i] = min(best[i], time.perf_counter() - t0)
                gc.enable()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    return best[0], best[1]


def check_against(current, baseline_path, floors=None, tolerance=0.20):
    """Names of the workloads whose speedup regressed; prints one line each.

    *current* holds its rows under ``"workloads"``; the baseline file
    holds them there too, or at its top level.  A row fails below
    ``(1 - tolerance)`` of its baseline speedup, or below its hard floor
    in *floors* (``{name: speedup}``).
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    baseline = baseline.get("workloads", baseline)
    failures = []
    for key, now_data in current["workloads"].items():
        base_data = baseline.get(key)
        if base_data is None:
            print(f"  {key}: not in baseline, skipped")
            continue
        base = base_data["speedup"]
        now = now_data["speedup"]
        floor = (1.0 - tolerance) * base
        status = "ok" if now >= floor else "REGRESSED"
        print(f"  {key}: speedup {now:.2f}x vs baseline {base:.2f}x "
              f"(floor {floor:.2f}x) {status}")
        if now < floor:
            failures.append(key)
    for key, hard_floor in (floors or {}).items():
        data = current["workloads"].get(key)
        if data is not None and data["speedup"] < hard_floor:
            print(f"  {key}: speedup {data['speedup']:.2f}x below the "
                  f"hard {hard_floor:.1f}x floor FAILED")
            failures.append(f"{key}-floor")
    return failures
