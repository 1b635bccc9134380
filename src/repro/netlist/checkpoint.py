"""Design checkpoint (DCP) serialization.

Pre-implemented components are stored as checkpoints — the Python
analogue of the Vivado/RapidWright DCP files the paper's database holds.
A checkpoint *file* is always the binary columnar image of
:mod:`repro.netlist.codec`.  The dict codec here (:func:`design_to_dict`
/ :func:`design_from_dict`) is not a file format: it is the readable
oracle the binary codec is asserted bit-identical to, and the diffable
form the ECO verifier compares.  It round-trips every physical and
logical attribute, including placements, locked routes and pin tiles.
"""

from __future__ import annotations

import copy
from pathlib import Path

from ..fabric.pblock import PBlock
from .cell import Cell
from .codec import MAGIC, decode_design, encode_design
from .design import Design
from .net import Net, Port

__all__ = [
    "CheckpointFormatError",
    "save_checkpoint",
    "load_checkpoint",
    "design_to_dict",
    "design_from_dict",
]

FORMAT_VERSION = 1


class CheckpointFormatError(ValueError):
    """A file handed to :func:`load_checkpoint` is not a binary design image."""


def design_to_dict(design: Design) -> dict:
    """Serialize a design to a JSON-compatible dict."""
    return {
        "format": FORMAT_VERSION,
        "name": design.name,
        "pblock": (
            [design.pblock.col0, design.pblock.row0, design.pblock.col1, design.pblock.row1]
            if design.pblock
            else None
        ),
        # Deep-copied: the dict may outlive the design's live metadata.
        "metadata": copy.deepcopy(design.metadata),
        "cells": [
            {
                "name": c.name,
                "ctype": c.ctype,
                "placement": list(c.placement) if c.placement else None,
                "locked": c.locked,
                "luts": c.luts,
                "ffs": c.ffs,
                "comb_depth": c.comb_depth,
                "seq": c.seq,
                "module": c.module,
            }
            for c in design.cells.values()
        ],
        "nets": [
            {
                "name": n.name,
                "driver": n.driver,
                "sinks": n.sinks,
                "routes": n.routes,
                "width": n.width,
                "is_clock": n.is_clock,
                "locked": n.locked,
            }
            for n in design.nets.values()
        ],
        "ports": [
            {
                "name": p.name,
                "direction": p.direction,
                "net": p.net,
                "width": p.width,
                "tile": list(p.tile) if p.tile else None,
                "protocol": p.protocol,
            }
            for p in design.ports.values()
        ],
    }


def design_from_dict(data: dict) -> Design:
    """Deserialize a design from :func:`design_to_dict` output."""
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {version!r}")
    pblock = PBlock(*data["pblock"]) if data.get("pblock") else None
    design = Design(data["name"], pblock=pblock)
    design.metadata = copy.deepcopy(data.get("metadata", {}))
    for c in data["cells"]:
        design.add_cell(
            Cell(
                c["name"],
                c["ctype"],
                placement=tuple(c["placement"]) if c["placement"] else None,
                locked=c["locked"],
                luts=c["luts"],
                ffs=c["ffs"],
                comb_depth=c["comb_depth"],
                seq=c["seq"],
                module=c.get("module"),
            )
        )
    for n in data["nets"]:
        net = Net(
            n["name"],
            n["driver"],
            list(n["sinks"]),
            width=n["width"],
            is_clock=n["is_clock"],
            locked=n["locked"],
        )
        net.routes = [list(r) if r is not None else None for r in n["routes"]]
        design.add_net(net)
    for p in data["ports"]:
        design.add_port(
            Port(
                p["name"],
                p["direction"],
                p["net"],
                width=p["width"],
                tile=tuple(p["tile"]) if p["tile"] else None,
                protocol=p.get("protocol", "stream"),
            )
        )
    return design


def save_checkpoint(design: Design, path: str | Path) -> Path:
    """Write *design* to *path* as a binary design image (deterministic bytes)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_design(design))
    return path


def load_checkpoint(path: str | Path) -> Design:
    """Read a design checkpoint written by :func:`save_checkpoint`.

    The file is identified by its leading magic, never by its name; any
    other content raises :class:`CheckpointFormatError` naming it.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        if raw.startswith(b"\x1f\x8b"):
            found = "a gzip-compressed JSON checkpoint"
        elif raw.lstrip()[:1] == b"{":
            found = "a plain JSON checkpoint"
        else:
            found = "not a checkpoint"
        raise CheckpointFormatError(
            f"{path} is {found}: only the binary design image is read; "
            "rewrite the design with save_checkpoint"
        )
    return decode_design(raw)
