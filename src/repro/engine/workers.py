"""Picklable worker entry points for the engine.

Pooled tasks cross a process boundary, so their callables must be
module-level (lambdas and closures cannot be pickled).  These wrappers
are the process-safe counterparts of the flow's build primitives: each
takes plain picklable inputs (:class:`~repro.cnn.graph.Component`,
:class:`~repro.fabric.device.Device`, scalars) and returns a plain dict
whose ``blob`` is the locked design in the binary columnar codec
(:mod:`repro.netlist.codec`) — one bytes object crosses the pipe
instead of a dict-of-dicts the pickler has to walk, and the same value
feeds the build cache and, parsed once, *is* the checkpoint database's
record (:meth:`~repro.rapidwright.database.ComponentDatabase.put_result`).
"""

from __future__ import annotations

from dataclasses import dataclass

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
from ..netlist.design import Design
from ..place import _annealer_reference, native as _place_native  # noqa: F401
from ..rapidwright.explore import explore_component, implement_trial
from ..rapidwright.ooc import preimplement
from ..route import native as _route_native  # noqa: F401
from ..synth.generator import generate_component

__all__ = [
    "ComponentFactory",
    "build_component",
    "explore_build_component",
    "run_explore_trial",
]


@dataclass(frozen=True)
class ComponentFactory:
    """Picklable replacement for ``lambda: generate_component(comp, ...)``.

    :func:`~repro.rapidwright.explore.explore_component` consumes one
    fresh design per trial; this factory regenerates it in whichever
    process the trial lands on.
    """

    component: Component
    rom_weights: bool = True

    def __call__(self) -> Design:
        return generate_component(self.component, rom_weights=self.rom_weights)


def build_component(
    component: Component,
    device: Device,
    *,
    rom_weights: bool = True,
    effort: str = "high",
    seed: int = 0,
    plan_ports: bool = True,
) -> dict:
    """Generate and OOC pre-implement one component; return its checkpoint."""
    design = ComponentFactory(component, rom_weights)()
    result = preimplement(design, device, effort=effort, seed=seed, plan_ports=plan_ports)
    return {"blob": encode_design(result.design), "fmax_mhz": result.fmax_mhz}


def explore_build_component(
    component: Component,
    device: Device,
    *,
    rom_weights: bool = True,
    plan_ports: bool = True,
    explore: dict | None = None,
) -> dict:
    """Run the function-optimization DSE for one component; return the best."""
    result = explore_component(
        ComponentFactory(component, rom_weights),
        device,
        plan_ports=plan_ports,
        **(explore or {}),
    )
    return {
        "blob": encode_design(result.best.design),
        "fmax_mhz": result.best.fmax_mhz,
    }


def run_explore_trial(factory, device: Device, point: tuple, plan_ports: bool) -> tuple:
    """One DSE trial (one point of the explore sweep) as an engine task."""
    ooc, anchors = implement_trial(factory, device, point, plan_ports)
    # Ship the locked design as one binary blob instead of letting the
    # pickler walk thousands of Cell/Net objects; the sweep decodes it
    # back in (see explore._reattached).
    blob = encode_design(ooc.design)
    ooc.design = None
    return ooc, blob, anchors
