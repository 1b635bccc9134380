"""Picklable worker entry points for the engine.

Pooled tasks cross a process boundary, so their callables must be
module-level (lambdas and closures cannot be pickled).  These wrappers
are the process-safe counterparts of the flow's build primitives: each
takes plain picklable inputs (:class:`~repro.cnn.graph.Component`,
:class:`~repro.fabric.device.Device`, scalars) and returns the locked
design in the binary columnar codec (:mod:`repro.netlist.codec`) — one
bytes object crosses the pipe instead of a dict-of-dicts the pickler has
to walk, and the same value, parsed once and stamped, *is* the
checkpoint database's record (its OOC Fmax in its metadata) and its
library file (:meth:`~repro.rapidwright.database.ComponentDatabase.build`).
"""

from __future__ import annotations

# The parent imports this module before the engine forks its workers, so
# everything a build imports on first use is imported here, once: lazily,
# each worker would pay 0.04-0.07 s for it in its first task and the
# parent again in its online phase (repro.drc from Design.validate,
# numpy.ma from np.unique in anneal_native, numpy.random from make_rng,
# and the cores and references the annealer and router import per call).
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .. import drc  # noqa: F401
from ..cnn.graph import Component
from ..fabric.device import Device
from ..netlist.codec import encode_design
from ..place import _annealer_reference, native as _place_native  # noqa: F401
from ..rapidwright.explore import explore_component, implement_trial
from ..route import native as _route_native  # noqa: F401

__all__ = [
    "build_component",
    "run_explore_trial",
]


def build_component(
    component: Component,
    device: Device,
    *,
    rom_weights: bool = True,
    effort: str = "high",
    seed: int = 0,
    plan_ports: bool = True,
    explore: dict | None = None,
) -> bytes:
    """Run the function-optimization sweep for one component at *effort*;
    return its best checkpoint.  *seed* is the default seed axis (without
    *explore*, one ``preimplement``); *explore* names sweep axes and may
    override it."""
    sweep = {"seeds": (seed,), **(explore or {})}
    result = explore_component(
        component, device, rom_weights=rom_weights, effort=effort, plan_ports=plan_ports,
        **sweep,
    )
    return encode_design(result.best.design)


def run_explore_trial(component: Component, device: Device, effort: str, point: tuple,
                      rom_weights: bool, plan_ports: bool) -> tuple:
    """One DSE trial (one point of the explore sweep) as an engine task."""
    ooc = implement_trial(component, device, effort, point, rom_weights, plan_ports)
    # Ship the locked design as one binary blob instead of letting the
    # pickler walk thousands of Cell/Net objects; the sweep decodes it
    # back in (see explore._reattached).
    blob = encode_design(ooc.design)
    ooc.design = None
    return ooc, blob
