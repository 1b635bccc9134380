"""The ECO every front end makes on a :func:`repro.spec.compile_spec` result."""

from __future__ import annotations

from ..netlist.codec import decode_design, encode_design
from ..rapidwright.database import ComponentDatabase
from .cts import run_cts
from .delta import delta_from_json
from .engine import EcoEngine

__all__ = ["layer_variant", "run_eco"]


def layer_variant(comp, device, *, effort: str, seed: int, rom_weights: bool = True):
    """*comp* re-implemented out of context at *seed*, as a fetch: its
    objects are built once, by the swap that places it."""
    database = ComponentDatabase(device)
    database.build([comp], rom_weights=rom_weights, effort=effort, seed=seed)
    return database.fetch(comp.signature)


def run_eco(result, spec):
    """Make the post-route edit ``spec.eco`` describes on *result*, the
    :func:`~repro.spec.compile_spec` build of *spec*.

    The edit is the :func:`~repro.eco.delta_from_json` document ``delta``;
    ``swap_layer`` is shorthand for the one-edit document ``{"name":
    "swap:<comp>@seed<s>", "edits": [{"op": "replace_layer", "module":
    <comp>, "seed": <s>}]}``.  A ``replace_layer`` module is named as
    :meth:`~repro.spec.JobSpec.resolve_eco_layer` names it, and its
    variant is that component re-implemented at *spec*'s effort and the
    edit's seed (default ``swap_seed``, else ``spec.seed + 1``).  ``cts``
    builds the clock trees first and ``spec.drc`` gates the edit.
    Returns ``(trees, eco, identical)``: ``identical`` is whether a
    replay through the full re-route/re-time oracle matches bit for bit
    (``None`` without ``verify``).  A failing gate or an illegal edit
    rolls back and raises ``DrcError`` / ``EcoError``.
    """
    request, flow = spec.eco, result.extras["flow"]
    seed = spec.seed + 1 if request.get("swap_seed") is None else request["swap_seed"]
    delta = request.get("delta")
    if delta is None:
        module = spec.resolve_eco_layer().name
        delta = {"name": f"swap:{module}@seed{seed}",
                 "edits": [{"op": "replace_layer", "module": module, "seed": seed}]}

    def variant(module, edit_seed):
        comp = spec.resolve_eco_layer(module)
        return comp.name, layer_variant(
            comp, flow.device, effort=spec.effort, rom_weights=not spec.stream_weights,
            seed=seed if edit_seed is None else edit_seed)

    edit = delta_from_json(delta, variant=variant)
    trees = run_cts(result.design, flow.device, delays=flow.delays) if request.get("cts") else []
    context = {"graph": flow.graph, "delays": flow.delays, "drc": spec.drc,
               "database": result.extras["database"]}
    verify = request.get("verify", False)
    before = encode_design(result.design) if verify else None
    eco = EcoEngine(result.design, flow.device, **context).apply(edit)
    if not verify:
        return trees, eco, None
    from . import eco_reference, matches_reference  # the package's, which callers may substitute

    ref = eco_reference(decode_design(before), edit, flow.device, **context)
    return trees, eco, matches_reference(result.design, eco, ref)
