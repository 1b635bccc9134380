"""The pre-implemented component flow (RapidWright-style)."""

from .database import ComponentDatabase, signature_key
from .explore import ExploreResult, ExploreTrial, explore_component
from .flow import PreImplementedFlow
from .module import (
    Footprint,
    RelocationError,
    candidate_anchors,
    relocate,
    relocate_reference,
    used_column_offsets,
)
from .ooc import OOCResult, preimplement
from .placer import ComponentPlacement, ComponentPlacer, PlacementInfeasible
from .stitcher import (
    StitchRecord,
    StitchResult,
    compose,
    compose_reference,
)

__all__ = [
    "ComponentDatabase",
    "signature_key",
    "ExploreResult",
    "ExploreTrial",
    "explore_component",
    "PreImplementedFlow",
    "Footprint",
    "RelocationError",
    "candidate_anchors",
    "relocate",
    "relocate_reference",
    "used_column_offsets",
    "OOCResult",
    "preimplement",
    "ComponentPlacement",
    "ComponentPlacer",
    "PlacementInfeasible",
    "StitchRecord",
    "StitchResult",
    "compose",
    "compose_reference",
]
