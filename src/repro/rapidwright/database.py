"""Checkpoint database for pre-built components.

The function-optimization phase runs "exactly once" (paper Sec. IV): each
unique component signature is pre-implemented OOC and its checkpoint
saved.  Later architecture-optimization runs fetch fresh copies by
signature — the productivity win comes precisely from these hits.

A record *is* the component's immutable columnar image
(:class:`~repro.netlist.codec.DesignImage`): what the build worker
returns, what sits in memory, and — as ``<build key>.dcpb``, its
``to_bytes()`` — what a *directory* keeps: the component library, one
content-addressed file per build (:func:`build_cache_key`), shared by
every process and run that opens the directory.
The online phase places components from the image's
:meth:`~ComponentDatabase.footprint` and fetches each instance once, at
its anchor (:meth:`~ComponentDatabase.fetch`) — as a placed block over
the image, whose objects are built only if something asks for them.  Building
answers each component from memory or the library first; the rest is a
:mod:`repro.engine` parallel map: independent components pre-implement
concurrently, one worker per usable core by default.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..cnn.graph import Component
from ..engine.cache import canonical, canonical_blob, content_key, write_atomic
from ..engine.executor import Engine, EngineReport, TaskSpec
from ..fabric.device import Device
from ..fabric.pblock import PBlock
from ..netlist.codec import DesignImage
from ..netlist.design import Design
from ..obs.span import incr
from .module import (
    Footprint,
    RelocationError,
    placed_copy,
    recorded_column_signature,
)

__all__ = [
    "ComponentDatabase",
    "signature_key",
    "build_cache_key",
    "image_integrity",
]

#: Reference implementation the interned fetch path is asserted
#: bit-identical to (oracle contract, lint rules ORC-001..003):
#: ``fetch(sig, anchor)`` must equal ``relocate_reference(get(sig), ...)``.
ORACLE = "repro.rapidwright.module.relocate_reference"


def signature_key(signature: tuple) -> str:
    """Stable short key for a component signature (checkpoint filename).

    The hash is taken over a *canonical* serialization of the signature
    (:func:`repro.engine.cache.canonical_blob`) rather than ``repr()``,
    so equivalent signatures that differ only in numeric type — ``1``
    versus ``numpy.int64(1)`` — or in sequence flavor — tuple versus
    list — map to one key.
    """
    return hashlib.sha1(canonical_blob(signature)).hexdigest()[:16]


def _same(a, b) -> bool:
    """Equal, and of the same types all the way down — what two objects
    must be for :func:`canonical_blob` to serialize them alike (``1``,
    ``1.0`` and ``True`` compare equal, but serialize apart)."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple or type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b and (type(a) is not float or repr(a) == repr(b))


def image_integrity(image: DesignImage) -> dict:
    """The integrity record the database stamps into a checkpoint image.

    ``sha1`` covers the name, pblock, string table and column bytes plus
    the canonical metadata *minus* the ``metadata.component`` keys the
    database itself stamps (``signature``, ``integrity``, ``build_key``) —
    stable across re-puts, independent of metadata dict order, and identical for
    serial, parallel and library-answered builds of one component.
    DRC rules DB-002/003 recompute the record and compare.
    """
    meta = image.metadata()
    comp = meta.get("component", {})
    meta["component"] = {
        k: v for k, v in comp.items() if k not in ("signature", "integrity", "build_key")
    }
    digest = hashlib.sha1(canonical_blob([image.name, image.pblock, image.strings, meta]))
    for column in image.columns():
        digest.update(len(column).to_bytes(8, "little"))
        digest.update(column)
    return {
        "sha1": digest.hexdigest(),
        "locked_cells": int(np.count_nonzero(image.cell_locked)),
        "locked_nets": int(np.count_nonzero(image.net_locked)),
    }


def build_cache_key(
    component: Component,
    device: Device,
    *,
    rom_weights: bool = True,
    effort: str = "high",
    seed: int = 0,
    plan_ports: bool = True,
    explore: dict | None = None,
) -> str:
    """Content address of one component pre-implementation.

    Everything that determines the checkpoint bytes goes in: the
    component signature, the device part, build options, the DSE sweep
    (if any), and the engine's code-version salt.  The generators read
    *rom_weights* for conv and fc stages alone, so a weightless component
    is filed once, under its ROM-build key.  A library directory files
    the build as ``<key>.dcpb``.
    """
    return content_key(
        "component-build",
        component.signature,
        device.name,
        rom_weights or component.weights == 0,
        effort,
        seed,
        plan_ports,
        explore,
    )


@dataclass
class _Record:
    signature: tuple
    image: DesignImage       # stamped, locked design; OOC Fmax in metadata["ooc"]
    #: :func:`build_cache_key` of the build that made the image; ``""`` for a
    #: design stored by hand.
    build_key: str = ""


def _footprint(image: DesignImage) -> Footprint:
    """The placement view of *image* (kept per image: it reads the
    columns and the OOC column signature, which stamping never changes)."""
    if image.pblock is None:
        raise RelocationError(f"design {image.name} has no pblock footprint")
    return Footprint(
        name=image.name,
        pblock=PBlock(*image.pblock),
        used_offsets=image.used_column_offsets(),
        rel_sites=image.relative_sites(),
        pin_tiles=image.port_tiles(),
        column_signature=recorded_column_signature(image.metadata()),
    )


@dataclass
class ComponentDatabase:
    """Signature-keyed store of pre-implemented component checkpoints.

    With a *directory*, :meth:`build` reads and writes the component
    library there; :meth:`put` stores in memory only.
    """

    device: Device
    directory: Path | None = None
    records: dict[str, _Record] = field(default_factory=dict)
    #: signature -> ``(the signature object, its key)``: what :meth:`_key`
    #: has hashed, one entry per distinct signature.
    _keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.directory is not None:
            self.directory = Path(self.directory)

    def _key(self, signature: tuple) -> str:
        """:func:`signature_key` of *signature*, hashed once per database:
        a run asks for the key of every component three times (``has``,
        ``footprint``, ``fetch``), and the next run builds equal
        signatures again.  The same object is answered at once, an equal
        one after a type-exact comparison."""
        try:
            held = self._keys.get(signature)
        except TypeError:                        # a list inside: not hashable
            return signature_key(signature)
        if held is not None and (held[0] is signature or _same(held[0], signature)):
            if held[0] is not signature:         # this run's object hits at once
                self._keys[signature] = held = (signature, held[1])
            return held[1]
        key = signature_key(signature)
        self._keys[signature] = (signature, key)
        return key

    # -- store/fetch ------------------------------------------------------

    def put(self, signature: tuple, design: Design) -> str:
        return self._ingest(signature, DesignImage.from_design(design))

    def _ingest(self, signature: tuple, image: DesignImage, build_key: str = "") -> str:
        """Stamp *image* and make it the record for *signature*.

        The exact signature and the build key (when :meth:`build` made
        the image) go into the image's metadata — a library file must
        carry the ones its name promises; the integrity record is what
        DB-002/003 re-check.  A built record is written to the library
        atomically, so a killed build leaves no torn file.
        """
        key = self._key(signature)
        meta = image.metadata()
        comp = meta.setdefault("component", {})
        comp["signature"] = canonical(signature)
        comp["integrity"] = image_integrity(image)
        if build_key:
            comp["build_key"] = build_key
        image = image.with_metadata(meta)
        self.records[key] = _Record(signature, image, build_key)
        if build_key and self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            write_atomic(self.directory / f"{build_key}.dcpb", image.to_bytes())
        return key

    def _load(self, signature: tuple, build_key: str) -> bool:
        """Make ``<build_key>.dcpb`` the record for *signature*, if the
        library holds that file and it is what its name promises.

        A file that does not parse, or whose stamped signature or build
        key disagrees with its name, is counted as ``library.rejected``
        and left for :meth:`build` to replace; a good one is a
        ``library.hit``.
        """
        path = self.directory / f"{build_key}.dcpb"
        try:
            image = DesignImage.from_bytes(path.read_bytes())
            meta = image.metadata()
        except FileNotFoundError:
            return False
        except (OSError, ValueError) as exc:
            return self._reject(path, str(exc))
        comp = meta.get("component")
        if not isinstance(comp, dict) or comp.get("build_key") != build_key \
                or comp.get("signature") != canonical(signature):
            return self._reject(path, "its stamped key or signature disagrees with its name")
        self.records[self._key(signature)] = _Record(signature, image, build_key)
        incr("library.hit")
        return True

    @staticmethod
    def _reject(path: Path, reason: str) -> bool:
        incr("library.rejected")
        warnings.warn(f"library file rejected: {path}: {reason}; rebuilding it",
                      RuntimeWarning, stacklevel=4)
        return False

    def has(self, signature: tuple) -> bool:
        return self._key(signature) in self.records

    def _record(self, signature: tuple) -> _Record:
        try:
            return self.records[self._key(signature)]
        except KeyError:
            raise KeyError(f"no checkpoint for signature {signature!r}") from None

    def get(self, signature: tuple) -> Design:
        """Fresh deep copy of the checkpoint for *signature*, as objects
        (:meth:`fetch` hands out the same copy with its objects still
        pending; a caller of ``get`` is about to read or edit them)."""
        design = self.fetch(signature)
        design.cells  # materialize here, not inside whatever the caller times
        return design

    def footprint(self, signature: tuple) -> Footprint:
        """Placement view of *signature*, read off the columnar image.

        The :class:`~repro.rapidwright.module.Footprint` the component
        placer needs — pblock, used column offsets, relative sites, pin
        tiles — with no cell or net object built.  Computed once per
        image; equal to ``Footprint.of(self.get(signature))``.
        """
        return self._record(signature).image.derived("footprint", _footprint)

    def fetch(
        self,
        signature: tuple,
        anchor: tuple[int, int] | None = None,
        *,
        device: Device | None = None,
        instance: str | None = None,
    ) -> Design:
        """Fresh copy of the checkpoint, placed at *anchor* in one step.

        :func:`~repro.rapidwright.module.placed_copy` of the record's
        image: ``fetch(sig)`` is :meth:`get` with its objects still
        pending, ``fetch(sig, anchor)`` is ``relocate(get(sig), device,
        anchor)`` without building the source copy.  The relocation is
        validated here, eagerly, with the :class:`~repro.rapidwright.
        module.RelocationError` diagnostics of the
        :func:`~repro.rapidwright.module.relocate_reference` oracle, and
        the copy is bit-identical to it.  *instance* names the copy as
        one instance of a composed design, ready for :meth:`Design.adopt`.
        """
        design = placed_copy(
            self._record(signature).image, device or self.device, anchor, instance=instance
        )
        incr("codec.fetch")
        return design

    def fmax_of(self, signature: tuple) -> float:
        """The OOC Fmax the record's image metadata holds, as ``compose`` reports it."""
        ooc = self._record(signature).image.metadata().get("ooc")
        return ooc.get("fmax_mhz", 0.0) if isinstance(ooc, dict) else 0.0

    def __len__(self) -> int:
        return len(self.records)

    # -- building (function optimization, offline) ----------------------------

    def build(
        self,
        components: list[Component],
        *,
        rom_weights: bool = True,
        effort: str = "high",
        seed: int = 0,
        plan_ports: bool = True,
        explore: dict | None = None,
        jobs: int | None = None,
    ) -> EngineReport:
        """Pre-implement every unique component signature not yet stored
        with these options.

        Each signature is answered, in order, by its in-memory record
        when that was built with these options (part, effort, seed,
        weights, port planning, exploration), then by the library file
        ``<build_cache_key>.dcpb`` when a *directory* holds one that parses
        and carries the signature and build key its name promises, and
        otherwise by an engine task, whose image is written to the
        library.  A record of other or unknown options (a design stored
        by hand) is replaced; so is a rejected file.

        Returns the engine's report, empty when nothing was pending.  Its
        :attr:`~repro.engine.executor.EngineReport.run_s` is the offline
        cost (paid once and amortized over every accelerator built from
        the database, so productivity accounting keeps it separate — as
        the paper does): summed task run times, identical whatever *jobs*
        is; the concurrent wall clock is its ``wall_s``.

        Each component is built by the function-optimization sweep of
        :func:`repro.rapidwright.explore.explore_component` at this
        build's *effort*, whose best trial is stored.  Its seed axis
        defaults to this build's *seed*, so without *explore* it is one
        pre-implementation; *explore* names sweep axes and is forwarded
        to it (e.g. ``{"seeds": (0, 1, 2)}``, which then overrides *seed*).

        *jobs* worker processes pre-implement independent components
        concurrently: ``None`` (the default) means one per usable core,
        serial when the process runs other threads (see
        :class:`~repro.engine.executor.Engine`), ``1`` serial in-process.
        Parallel builds are bit-identical to serial builds — every worker
        runs the same seeded, pure build function.
        """
        pending: dict[str, tuple[Component, str]] = {}
        for comp in components:
            key = self._key(comp.signature)
            if key in pending:
                continue
            build_key = build_cache_key(
                comp, self.device, rom_weights=rom_weights,
                effort=effort, seed=seed, plan_ports=plan_ports, explore=explore,
            )
            record = self.records.get(key)
            if record is not None and record.build_key == build_key:
                continue
            if self.directory is None or not self._load(comp.signature, build_key):
                pending[key] = (comp, build_key)
        if not pending:
            return EngineReport(jobs=0, wall_s=0.0, results={})

        from ..engine import workers
        from ..synth.generator import estimated_cells

        options = dict(rom_weights=rom_weights, effort=effort, seed=seed,
                       plan_ports=plan_ports, explore=explore)
        # Largest first, by the budgets' cell estimate: a pool then never
        # starts its longest build last.  Records are filed in component
        # order whatever order the builds ran in.
        tasks = sorted((
            TaskSpec(key, workers.build_component, (comp, self.device), options,
                     stage=f"build:{comp.kind}")
            for key, (comp, _) in pending.items()
        ), key=lambda task: -estimated_cells(task.args[0], rom_weights=rom_weights))
        report = Engine(jobs=jobs).run(tasks)
        for key, (comp, build_key) in pending.items():
            self._ingest(comp.signature, DesignImage.from_bytes(report.results[key]),
                         build_key)
        return report
