"""Post-route engineering changes: CTS, incremental ECO, and its oracle.

A routed design from the pre-implemented flow is an asset worth editing
in place rather than rebuilding.  This package provides:

- :func:`run_cts` — buffered H-tree clock distribution with measured
  skew/insertion, consumed by :func:`repro.timing.sta.clock_terms`;
- :class:`EcoEngine` — applies a :class:`DesignDelta` (cell swaps,
  placement nudges, net rewires, whole-layer replacement from the
  component database) by ripping up only the affected nets,
  incrementally rerouting and re-timing through the live
  :class:`~repro.timing.IncrementalSta` session, and re-gating DRC;
- :func:`eco_reference` — the frozen from-scratch oracle every
  incremental result is held bit-identical to
  (``tests/test_property_eco.py``);
- :func:`run_eco` — the one executor of a ``JobSpec.eco``, which ``repro
  eco`` and serve's ``eco`` jobs both call.
"""

from .cts import CtsError, CtsResult, run_cts
from .delta import (
    CellSwap,
    DesignDelta,
    EcoError,
    EcoUndo,
    LayerReplace,
    NetRewire,
    PlacementNudge,
    affected_nets,
    apply_delta,
    delta_from_json,
)
from .edit import layer_variant, run_eco
from .engine import EcoEngine, EcoResult
from .reference import ReferenceResult, eco_reference, matches_reference

__all__ = [
    "CellSwap",
    "CtsError",
    "CtsResult",
    "DesignDelta",
    "EcoEngine",
    "EcoError",
    "EcoResult",
    "EcoUndo",
    "LayerReplace",
    "NetRewire",
    "PlacementNudge",
    "ReferenceResult",
    "affected_nets",
    "apply_delta",
    "delta_from_json",
    "eco_reference",
    "layer_variant",
    "matches_reference",
    "run_cts",
    "run_eco",
]
