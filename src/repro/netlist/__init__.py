"""Netlist substrate: cells, nets, ports, designs, checkpoints."""

from .cell import Cell
from .checkpoint import (
    CheckpointFormatError,
    design_from_dict,
    design_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from .codec import DesignImage, decode_design, encode_design
from .design import Design, DesignError
from .library import CELL_LIBRARY, CellTypeSpec, cell_type
from .net import Net, Port

__all__ = [
    "Cell",
    "Net",
    "Port",
    "Design",
    "DesignError",
    "CELL_LIBRARY",
    "CellTypeSpec",
    "cell_type",
    "CheckpointFormatError",
    "save_checkpoint",
    "load_checkpoint",
    "design_to_dict",
    "design_from_dict",
    "DesignImage",
    "encode_design",
    "decode_design",
]
