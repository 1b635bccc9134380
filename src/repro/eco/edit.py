"""The layer swap every front end runs on a :func:`repro.spec.compile_spec` result."""

from __future__ import annotations

from ..netlist.codec import decode_design, encode_design
from ..rapidwright.database import ComponentDatabase
from .delta import DesignDelta, LayerReplace
from .engine import EcoEngine

__all__ = ["layer_variant", "swap_delta", "run_eco"]


def layer_variant(comp, device, *, effort: str, seed: int, rom_weights: bool = True):
    """*comp* re-implemented out of context at *seed*, as a fetch: its
    objects are built once, by the swap that places it."""
    database = ComponentDatabase(device)
    database.build([comp], rom_weights=rom_weights, effort=effort, seed=seed)
    return database.fetch(comp.signature)


def swap_delta(comp, device, *, effort: str, seed: int, rom_weights: bool = True):
    """The delta that replaces module *comp* with its variant at *seed*."""
    variant = layer_variant(comp, device, effort=effort, seed=seed, rom_weights=rom_weights)
    return DesignDelta(f"swap:{comp.name}@seed{seed}", (LayerReplace(comp.name, variant),))


def run_eco(result, delta: DesignDelta, *, drc: str = "warn", verify: bool = False):
    """Apply *delta* to a ``preimpl`` result's routed design, incrementally.

    Returns ``(EcoResult, identical)``: whether a replay through the full
    re-route/re-time oracle matches bit for bit (``None`` without
    *verify*).  A failing strict *drc* gate rolls back and raises.
    """
    flow = result.extras["flow"]
    context = {"graph": flow.graph, "delays": flow.delays, "drc": drc,
               "database": result.extras["database"]}
    before = encode_design(result.design) if verify else None
    eco = EcoEngine(result.design, flow.device, **context).apply(delta)
    if not verify:
        return eco, None
    from . import eco_reference, matches_reference  # the package's, which callers may substitute

    ref = eco_reference(decode_design(before), delta, flow.device, **context)
    return eco, matches_reference(result.design, eco, ref)
