"""Checkpoint database for pre-built components.

The function-optimization phase runs "exactly once" (paper Sec. IV): each
unique component signature is pre-implemented OOC and its checkpoint
saved.  Later architecture-optimization runs fetch fresh copies by
signature — the productivity win comes precisely from these hits.

A record *is* the component's immutable columnar image
(:class:`~repro.netlist.codec.DesignImage`): what the build worker
returns, what sits in memory, and — as ``<key>.dcpb``, its
``to_bytes()`` — what a *directory* persists for reuse across processes.
The online phase places components from the image's
:meth:`~ComponentDatabase.footprint` and fetches each instance once, at
its anchor (:meth:`~ComponentDatabase.fetch`) — as a placed block over
the image, whose objects are built only if something asks for them.  Building is
a :mod:`repro.engine` parallel map: independent components
pre-implement concurrently, one worker per usable core by default, and a
content-addressed :class:`~repro.engine.cache.BuildCache` answers repeat
builds without re-running the flow.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .._util import StageTimer
from ..cnn.graph import Component
from ..engine.cache import BuildCache, canonical_blob, content_key
from ..fabric.device import Device
from ..fabric.pblock import PBlock
from ..netlist.block import Block
from ..netlist.codec import DesignImage
from ..netlist.design import Design
from ..obs.span import incr
from .module import (
    Footprint,
    RelocationError,
    checked_shift,
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


def image_integrity(image: DesignImage) -> dict:
    """The integrity record the database stamps into a checkpoint image.

    ``sha1`` covers the name, pblock, string table and column bytes plus
    the canonical metadata *minus* the ``metadata.component`` keys the
    database itself stamps (``signature``, ``integrity``) — stable across
    re-puts, independent of metadata dict order, and identical for
    serial, parallel, cache-served and reloaded builds of one component.
    DRC rules DB-002/003 recompute the record and compare.
    """
    meta = image.metadata()
    comp = meta.get("component", {})
    meta["component"] = {
        k: v for k, v in comp.items() if k not in ("signature", "integrity")
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
    signature: tuple,
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
    (if any), and the engine's code-version salt.
    """
    return content_key(
        "component-build",
        signature,
        device.name,
        rom_weights,
        effort,
        seed,
        plan_ports,
        explore,
    )


def _signature_to_json(obj):
    """Signature → JSON-safe structure (tuples to lists, numpy to builtin)."""
    if isinstance(obj, (tuple, list)):
        return [_signature_to_json(item) for item in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    return obj


def _signature_from_json(obj):
    """Inverse of :func:`_signature_to_json` (lists back to tuples)."""
    if isinstance(obj, list):
        return tuple(_signature_from_json(item) for item in obj)
    return obj


@dataclass
class _Record:
    signature: tuple
    image: DesignImage       # the locked design, stamped with signature + integrity
    fmax_mhz: float
    hits: int = 0
    footprint: Footprint | None = field(default=None, repr=False, compare=False)


@dataclass
class ComponentDatabase:
    """Signature-keyed store of pre-implemented component checkpoints."""

    device: Device
    directory: Path | None = None
    records: dict[str, _Record] = field(default_factory=dict)

    #: Telemetry of the most recent :meth:`build` (queue/run/worker/cache
    #: per task), or ``None`` when nothing needed building.
    last_build_report: "object | None" = field(default=None, repr=False, compare=False)

    # -- store/fetch ------------------------------------------------------

    def put(self, signature: tuple, design: Design, fmax_mhz: float | None = None) -> str:
        if fmax_mhz is None:
            fmax_mhz = design.metadata.get("ooc", {}).get("fmax_mhz", 0.0)
        return self._ingest(signature, DesignImage.from_design(design), fmax_mhz)

    def put_result(self, signature: tuple, out: dict) -> str:
        """Store a worker's build output, ``{"blob": <image bytes>, "fmax_mhz": ...}``."""
        return self._ingest(signature, DesignImage.from_bytes(out["blob"]), out["fmax_mhz"])

    def _ingest(self, signature: tuple, image: DesignImage, fmax_mhz: float) -> str:
        """Stamp *image* and make it the record for *signature*.

        The exact signature goes into the image's metadata, so a reloaded
        database answers :meth:`has`/:meth:`get` for the signatures it was
        built with; the integrity record is what DB-002/003 re-check.
        """
        key = signature_key(signature)
        meta = image.metadata()
        comp = meta.setdefault("component", {})
        comp["signature"] = _signature_to_json(signature)
        comp["integrity"] = image_integrity(image)
        image = image.with_metadata(meta)
        self.records[key] = _Record(signature, image, fmax_mhz)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            (self.directory / f"{key}.dcpb").write_bytes(image.to_bytes())
        return key

    def has(self, signature: tuple) -> bool:
        return signature_key(signature) in self.records

    def _record(self, signature: tuple) -> _Record:
        try:
            return self.records[signature_key(signature)]
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
        signature; equal to ``Footprint.of(self.get(signature))``.
        """
        record = self._record(signature)
        if record.footprint is None:
            image = record.image
            if image.pblock is None:
                raise RelocationError(f"design {image.name} has no pblock footprint")
            record.footprint = Footprint(
                name=image.name,
                pblock=PBlock(*image.pblock),
                used_offsets=image.used_column_offsets(),
                rel_sites=image.relative_sites(),
                pin_tiles=image.port_tiles(),
                column_signature=recorded_column_signature(image.metadata()),
            )
        return record.footprint

    def fetch(
        self,
        signature: tuple,
        anchor: tuple[int, int] | None = None,
        *,
        device: Device | None = None,
        validate: bool = True,
        instance: str | None = None,
    ) -> Design:
        """Fresh copy of the checkpoint, relocated to *anchor* in one step.

        ``fetch(sig)`` is :meth:`get`; ``fetch(sig, anchor)`` is
        ``relocate(get(sig), device, anchor)`` — but the relocation is
        applied as offset arithmetic on the columnar image while it
        materializes, skipping the per-copy codec round trip.
        Bit-identical to the :func:`repro.rapidwright.module.
        relocate_reference` oracle; raises the same
        :class:`~repro.rapidwright.module.RelocationError` diagnostics.

        *instance* names the copy as one instance of a composed design
        (``"{instance}/"``-prefixed cell and net names, ``module`` tags;
        see :meth:`DesignImage.materialize`), ready for
        :meth:`Design.adopt`.

        The relocation is validated here, eagerly; the copy's objects
        are not built here.  The returned design has its ``name``,
        ``pblock``, ``metadata`` and ``ports`` and is *block-backed*
        (:class:`~repro.netlist.design.Design`): one placed
        :class:`~repro.netlist.block.Block` over the record's image,
        which the first access to ``cells`` / ``nets`` materializes — or
        which :meth:`Design.adopt` moves into a composed design as it is.
        """
        record = self._record(signature)
        record.hits += 1
        image = record.image
        device = device or self.device
        dcol = drow = 0
        if anchor is not None:
            if image.pblock is None:
                raise RelocationError(f"design {image.name} has no pblock footprint")
            pblock = PBlock(*image.pblock)
            used = image.used_column_offsets() if validate else None
            dcol, drow, _ = checked_shift(image.name, pblock, device, anchor, used)
        design = Design.pending(
            image.frame(dcol, drow, instance=instance),
            Block(image, dcol, drow, device.nrows, instance),
        )
        incr("codec.fetch")
        return design

    def fmax_of(self, signature: tuple) -> float:
        return self.records[signature_key(signature)].fmax_mhz

    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_hits(self) -> int:
        return sum(r.hits for r in self.records.values())

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
        cache: BuildCache | None = None,
    ) -> StageTimer:
        """Pre-implement every unique component signature not yet stored.

        Returns the offline timer (this cost is paid once and amortized
        over every accelerator built from the database, so productivity
        accounting keeps it separate — as the paper does).  Stage totals
        are summed task run times, identical whatever *jobs* is; the
        concurrent wall clock is the ``build/wall`` sub-stage and
        :attr:`last_build_report` carries the per-task telemetry.

        With *explore*, each component runs through the performance
        exploration of :func:`repro.rapidwright.explore.explore_component`
        (keyword arguments are forwarded, e.g. ``{"seeds": (0, 1, 2)}``)
        and the best trial is stored.

        *jobs* worker processes pre-implement independent components
        concurrently: ``None`` (the default) means one per usable core,
        serial when the process runs other threads (see
        :class:`~repro.engine.executor.Engine`), ``1`` serial in-process.
        *cache* short-circuits components whose content address is
        already known.  Parallel builds are bit-identical to serial
        builds — every worker runs the same seeded, pure build function.
        """
        pending: dict[str, Component] = {}
        for comp in components:
            if self.has(comp.signature):
                continue
            pending.setdefault(signature_key(comp.signature), comp)
        if not pending:
            return StageTimer()

        from ..engine import workers
        from ..engine.executor import Engine, TaskSpec

        options = dict(rom_weights=rom_weights, plan_ports=plan_ports)
        if explore:
            fn = workers.explore_build_component
            options["explore"] = dict(explore)
        else:
            fn = workers.build_component
            options.update(effort=effort, seed=seed)
        tasks = [
            TaskSpec(
                key, fn, (comp, self.device), options,
                stage=f"build:{comp.kind}",
                cache_key=build_cache_key(
                    comp.signature, self.device, rom_weights=rom_weights,
                    effort=effort, seed=seed, plan_ports=plan_ports, explore=explore,
                ),
            )
            for key, comp in pending.items()
        ]
        report = Engine(jobs=jobs, cache=cache).run(tasks)
        self.last_build_report = report
        for key, comp in pending.items():
            self.put_result(comp.signature, report.results[key])
        timer = report.timer()
        timer.add("build/wall", report.wall_s)
        return timer

    # -- persistence -------------------------------------------------------

    def load_directory(self) -> int:
        """Load every ``*.dcpb`` image persisted in :attr:`directory`.

        Signatures are restored exactly from the stamped metadata, so the
        loaded database answers :meth:`has` / :meth:`get` for the original
        signatures; no design object is built.  A malformed image, or one
        that records no signature, raises :class:`ValueError` naming the file.
        """
        if self.directory is None or not self.directory.exists():
            return 0
        loaded = 0
        for path in sorted(self.directory.glob("*.dcpb")):
            try:
                image = DesignImage.from_bytes(path.read_bytes())
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            meta = image.metadata()
            comp, ooc = meta.get("component"), meta.get("ooc")
            raw = comp.get("signature") if isinstance(comp, dict) else None
            if not isinstance(raw, list):
                raise ValueError(f"{path}: image records no component signature")
            signature = _signature_from_json(raw)
            self.records[signature_key(signature)] = _Record(
                signature, image,
                ooc.get("fmax_mhz", 0.0) if isinstance(ooc, dict) else 0.0,
            )
            loaded += 1
        return loaded
