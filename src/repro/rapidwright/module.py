"""Module relocation.

A pre-implemented component can be replicated anywhere its column
footprint repeats: UltraScale resources are laid out in full-height
columns, so a placement (and its locked routes) is valid at any anchor
whose run of column types equals the original pblock's column signature
(paper Sec. IV-A2: smaller pblocks -> more relocation anchors -> more
reusable components).

Relocation is a pure coordinate transform: cell placements, the pblock,
partition-pin tiles and routed node ids all shift by
``(dcol, drow)``; node ids shift by ``dcol * nrows + drow``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fabric.device import Device
from ..fabric.pblock import PBlock
from ..netlist.block import Block
from ..netlist.checkpoint import design_from_dict, design_to_dict
from ..netlist.codec import DesignImage
from ..netlist.design import Design, DesignError

__all__ = [
    "Footprint",
    "candidate_anchors",
    "placed_copy",
    "relocate",
    "relocate_reference",
    "used_column_offsets",
    "RelocationError",
]


class RelocationError(DesignError):
    """Raised when a module cannot legally move to the requested anchor."""


def used_column_offsets(design: Design) -> dict[int, int]:
    """Relative column offset -> tile-type code actually used by cells."""
    from ..fabric.device import TILE_FOR_CELL

    pblock = design.pblock
    if pblock is None:
        raise RelocationError(f"design {design.name} has no pblock footprint")
    used: dict[int, int] = {}
    for cell in design.cells.values():
        if cell.is_placed:
            used[cell.placement[0] - pblock.col0] = TILE_FOR_CELL[cell.ctype]
    return used


def recorded_column_signature(metadata: dict) -> tuple[int, ...] | None:
    """Column signature stored at OOC time in a module's metadata, if any."""
    recorded = metadata.get("ooc", {}).get("column_signature")
    return tuple(int(c) for c in recorded) if recorded else None


@dataclass(frozen=True, eq=False)
class Footprint:
    """What choosing an anchor needs to know about a module — and no more.

    The component placer and :func:`candidate_anchors` read only this
    view, so a database component is placed from its columnar image
    (:meth:`ComponentDatabase.footprint`) before any of its cells exist;
    :meth:`of` derives the same view from a live design.
    """

    name: str
    pblock: PBlock
    #: :func:`used_column_offsets` of the module.
    used_offsets: dict[int, int]
    #: ``(n, 2)`` pblock-relative sites of the placed cells.
    rel_sites: np.ndarray
    #: Partition-pin tile per port that has one (source coordinates).
    pin_tiles: dict[str, tuple[int, int]]
    #: Column signature recorded at OOC time, when there is one.
    column_signature: tuple[int, ...] | None = None
    #: What :meth:`anchors` and :meth:`site_offsets` worked out, by what
    #: each depends on.
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def anchors(self, device: Device, row_step: int | None) -> np.ndarray:
        """:func:`candidate_anchors` (not ``strict``) as an ``(n, 2)``
        array, worked out once per device grid and *row_step* and kept
        here — so a database record's footprint hands every later run
        the same array."""
        key = ("anchors", device.nrows, device.col_types.tobytes(), row_step)
        found = self._kept.get(key)
        if found is None:
            found = self._kept[key] = np.array(
                candidate_anchors(device, self, row_step=row_step), dtype=np.int64
            ).reshape(-1, 2)
        return found

    def site_offsets(self, nrows: int) -> np.ndarray:
        """``col * nrows + row`` of every placed site, pblock-relative:
        add an anchor's ``col0 * nrows + row0`` for the sites there."""
        key = ("sites", nrows)
        found = self._kept.get(key)
        if found is None:
            found = self._kept[key] = self.rel_sites[:, 0] * nrows + self.rel_sites[:, 1]
        return found

    @classmethod
    def of(cls, design: "Design | Footprint") -> "Footprint":
        if isinstance(design, Footprint):
            return design
        used = used_column_offsets(design)  # raises without a pblock
        base = design.pblock
        rel = np.array(
            [
                (c.placement[0] - base.col0, c.placement[1] - base.row0)
                for c in design.cells.values()
                if c.is_placed
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        return cls(
            name=design.name,
            pblock=base,
            used_offsets=used,
            rel_sites=rel,
            pin_tiles={
                p.name: p.tile for p in design.ports.values() if p.tile is not None
            },
            column_signature=recorded_column_signature(design.metadata),
        )


def candidate_anchors(
    device: Device,
    design: "Design | Footprint",
    *,
    row_step: int | None = None,
    strict: bool = False,
) -> list[tuple[int, int]]:
    """All ``(col, row)`` anchors where *design*'s footprint is legal.

    By default only the columns *used* by placed cells must type-match at
    the destination — sufficient on this fabric model, whose interconnect
    is uniform away from I/O columns.  ``strict=True`` additionally
    requires the full column signature to repeat (the conservative rule
    real UltraScale relocation follows); the signature recorded at OOC
    time is preferred, since it stays valid when probing anchors on a
    *different* device where the original pblock columns may be out of
    range.  Rows may shift freely (``row_step`` thins the candidates,
    default half the pblock height).
    """
    footprint = Footprint.of(design)
    pblock = footprint.pblock
    height = pblock.height
    if height > device.nrows or pblock.width > device.ncols:
        return []
    if strict:
        signature = footprint.column_signature or pblock.column_signature(device)
        cols = device.matching_column_anchors(signature)
    else:
        n_anchor = device.ncols - pblock.width + 1
        ok = np.ones(n_anchor, dtype=bool)
        for off, tile in footprint.used_offsets.items():
            ok &= device.col_types[off : off + n_anchor] == tile
        cols = [int(c) for c in np.flatnonzero(ok)]
    if row_step is None:
        row_step = max(1, height // 2)
    rows = list(range(0, device.nrows - height + 1, row_step))
    last = device.nrows - height
    if last >= 0 and last not in rows:
        rows.append(last)
    return [(c, r) for c in cols for r in rows]


def checked_shift(
    name: str,
    pblock: PBlock,
    device: Device,
    anchor: tuple[int, int],
    used: dict[int, int],
) -> tuple[int, int, PBlock]:
    """Validate a move of *pblock* to *anchor*; return ``(dcol, drow, target)``.

    *used* is the :func:`used_column_offsets` map the destination columns
    must match.  Raises the :class:`RelocationError` diagnostics of
    :func:`relocate_reference`.
    """
    dcol = anchor[0] - pblock.col0
    drow = anchor[1] - pblock.row0
    target = pblock.shifted(dcol, drow)
    if not target.within(device):
        raise RelocationError(
            f"relocating {name} to {anchor} leaves device {device.name}"
        )
    for off, tile in used.items():
        if device.tile_type(target.col0 + off) != tile:
            raise RelocationError(
                f"column footprint mismatch relocating {name} to "
                f"{anchor}: offset {off} needs tile type {tile}, found "
                f"{device.tile_type(target.col0 + off)}"
            )
    return dcol, drow, target


def placed_copy(
    image: DesignImage, device: Device, anchor: tuple[int, int] | None, *,
    instance: str | None = None,
) -> Design:
    """A fresh copy of *image* with its pblock origin at *anchor*
    (``None``: where it is), named as *instance* when given — the one
    relocation path, under :func:`relocate` and ``ComponentDatabase.fetch``.

    The move is validated here, eagerly (:func:`checked_shift`); no
    object is built here.  The copy has its ``name``, ``pblock``,
    ``metadata`` and ``ports`` and is *block-backed*: one placed
    :class:`~repro.netlist.block.Block` over *image*, which the first
    access to ``cells`` / ``nets`` materializes, already shifted, or
    :meth:`Design.adopt` moves into a composed design as it is.
    *instance* prefixes every cell and net name with ``"{instance}/"``
    and tags every cell with it, as :meth:`Design.instantiate` would.
    """
    dcol = drow = 0
    if anchor is not None:
        if image.pblock is None:
            raise RelocationError(f"design {image.name} has no pblock footprint")
        dcol, drow, _ = checked_shift(
            image.name, PBlock(*image.pblock), device, anchor, image.used_column_offsets()
        )
    return Design.pending(
        image.frame(dcol, drow, instance=instance),
        Block(image, dcol, drow, device.nrows, instance),
    )


def relocate(
    design: Design, device: Device, anchor: tuple[int, int], *, instance: str | None = None
) -> Design:
    """A fresh copy of *design* moved so its pblock origin is *anchor*,
    named as *instance* when given.

    :func:`placed_copy` of the design's columnar image, so the copy is
    block-backed and shares nothing with *design*.  Raises
    :class:`RelocationError` when the design has no pblock, the
    destination columns do not match its footprint or the move leaves
    the device.  Bit-identical to :func:`relocate_reference` (followed
    by :meth:`Design.instantiate` under *instance*).
    """
    return placed_copy(DesignImage.from_design(design), device, anchor, instance=instance)


def relocate_reference(
    design: Design, device: Device, anchor: tuple[int, int], *, validate: bool = True
) -> Design:
    """Reference relocation: deep copy through the JSON checkpoint codec.

    Exercises the same path a DCP reload would take — serialize, parse,
    then shift coordinates.  Retained as the oracle the fast path
    (:func:`placed_copy`, under :func:`relocate` and
    ``ComponentDatabase.fetch``) is asserted bit-identical to in
    ``tests/test_property_codec.py``.
    """
    pblock = design.pblock
    if pblock is None:
        raise RelocationError(f"design {design.name} has no pblock footprint")
    dcol = anchor[0] - pblock.col0
    drow = anchor[1] - pblock.row0
    target = pblock.shifted(dcol, drow)
    if not target.within(device):
        raise RelocationError(
            f"relocating {design.name} to {anchor} leaves device {device.name}"
        )
    if validate:
        for off, tile in used_column_offsets(design).items():
            if device.tile_type(target.col0 + off) != tile:
                raise RelocationError(
                    f"column footprint mismatch relocating {design.name} to "
                    f"{anchor}: offset {off} needs tile type {tile}, found "
                    f"{device.tile_type(target.col0 + off)}"
                )

    copy = design_from_dict(design_to_dict(design))
    if dcol == 0 and drow == 0:
        return copy
    nrows = device.nrows
    node_shift = dcol * nrows + drow
    for cell in copy.cells.values():
        if cell.is_placed:
            cell.placement = (cell.placement[0] + dcol, cell.placement[1] + drow)
    for net in copy.nets.values():
        net.routes = [
            [node + node_shift for node in path] if path is not None else None
            for path in net.routes
        ]
    for port in copy.ports.values():
        if port.tile is not None:
            port.tile = (port.tile[0] + dcol, port.tile[1] + drow)
    copy.pblock = target
    if "clk_src" in copy.metadata:
        c, r = copy.metadata["clk_src"]
        copy.metadata["clk_src"] = (c + dcol, r + drow)
    if "ooc" in copy.metadata:
        copy.metadata["ooc"]["pblock"] = [target.col0, target.row0, target.col1, target.row1]
    return copy
