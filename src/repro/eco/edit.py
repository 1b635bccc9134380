"""The ECO every front end makes on a :func:`repro.spec.compile_spec` result."""

from __future__ import annotations

from ..netlist.codec import decode_design, encode_design
from ..rapidwright.database import ComponentDatabase
from ..spec import SpecError
from .cts import run_cts
from .delta import DesignDelta, EcoError, LayerReplace, delta_from_json
from .engine import EcoEngine

__all__ = ["layer_variant", "run_eco"]


def layer_variant(comp, device, *, effort: str, seed: int, rom_weights: bool = True):
    """*comp* re-implemented out of context at *seed*, as a fetch: its
    objects are built once, by the swap that places it."""
    database = ComponentDatabase(device)
    database.build([comp], rom_weights=rom_weights, effort=effort, seed=seed)
    return database.fetch(comp.signature)


def run_eco(result, spec, *, drc: str = "warn", swap_layer: str | None = None,
            swap_seed: int | None = None, cts: bool = False, verify: bool = False,
            delta: dict | None = None):
    """Edit the routed design of *result*, the ``preimpl`` build of *spec*.

    The edit is the :func:`~repro.eco.delta_from_json` document *delta*,
    or else the swap of module *swap_layer* (named as ``JobSpec.eco``
    names it) for a variant built at *spec*'s effort and *swap_seed*
    (default ``spec.seed + 1``).  *cts* builds the clock trees first.
    Returns ``(trees, eco, identical)``: ``identical`` is whether a
    replay through the full re-route/re-time oracle matches bit for bit
    (``None`` without *verify*).  A request that names no single module
    or a malformed *delta* raises :class:`~repro.spec.SpecError` before
    the design is touched; a failing *drc* gate or an illegal edit rolls
    back and raises ``DrcError`` / ``EcoError``.
    """
    flow = result.extras["flow"]
    seed = spec.seed + 1 if swap_seed is None else swap_seed
    options = {"effort": spec.effort, "rom_weights": not spec.stream_weights}

    def layer(name):
        comp = spec.resolve_eco_layer(name)
        if comp is None:
            raise SpecError(f"no single layer of {spec.network_name} matches {name!r}")
        return comp

    if delta is None:
        comp = layer(swap_layer)
        variant = layer_variant(comp, flow.device, seed=seed, **options)
        edit = DesignDelta(f"swap:{comp.name}@seed{seed}", (LayerReplace(comp.name, variant),))
    else:
        edits = delta.get("edits") if isinstance(delta, dict) else None
        for e in edits if isinstance(edits, list) else ():
            if (isinstance(e, dict) and e.get("op") == "replace_layer"
                    and isinstance(e.get("module"), str)):
                e["module"] = layer(e["module"]).name
        try:
            edit = delta_from_json(delta, variant=lambda module, s: layer_variant(
                layer(module), flow.device, seed=seed if s is None else s, **options))
        except EcoError as exc:
            raise SpecError(str(exc)) from exc

    trees = run_cts(result.design, flow.device, delays=flow.delays) if cts else []
    context = {"graph": flow.graph, "delays": flow.delays, "drc": drc,
               "database": result.extras["database"]}
    before = encode_design(result.design) if verify else None
    eco = EcoEngine(result.design, flow.device, **context).apply(edit)
    if not verify:
        return trees, eco, None
    from . import eco_reference, matches_reference  # the package's, which callers may substitute

    ref = eco_reference(decode_design(before), edit, flow.device, **context)
    return trees, eco, matches_reference(result.design, eco, ref)
