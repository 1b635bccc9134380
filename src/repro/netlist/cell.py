"""Cell instances.

A :class:`Cell` is one placeable cluster (see
:mod:`repro.netlist.library`).  Placement is a ``(col, row)`` tile
coordinate or ``None``.  The ``locked`` flag implements the paper's "logic
locking": once a pre-implemented component reaches its QoR target, its
cells are locked so later flow stages (Vivado-style placement or routing)
may not move them.
"""

from __future__ import annotations

from .library import cell_type

__all__ = ["Cell"]


class Cell:
    """One placeable cluster-level cell.

    Attributes
    ----------
    name:
        Unique name within its design.
    ctype:
        Library cell type name (``SLICE``, ``DSP48E2``, ...).
    placement:
        ``(col, row)`` site coordinate, or ``None`` when unplaced.
    locked:
        When True, placers must not move the cell.
    luts / ffs:
        Resources used within the cluster (``SLICE`` only; bounded by the
        library capacity).
    comb_depth:
        Levels of logic packed into this cluster; scales the logic delay.
    seq:
        Whether the cell's outputs are registered (path endpoints in STA).
    module:
        Name of the pre-implemented module instance this cell belongs to
        (``None`` for flat designs).
    """

    __slots__ = (
        "name",
        "ctype",
        "placement",
        "locked",
        "luts",
        "ffs",
        "comb_depth",
        "seq",
        "module",
    )

    def __init__(
        self,
        name: str,
        ctype: str,
        *,
        placement: tuple[int, int] | None = None,
        locked: bool = False,
        luts: int = 0,
        ffs: int = 0,
        comb_depth: int = 1,
        seq: bool | None = None,
        module: str | None = None,
    ) -> None:
        spec = cell_type(ctype)  # validates the type name
        max_lut = spec.max_resources.get("LUT", 0)
        max_ff = spec.max_resources.get("FF", 0)
        if luts > max_lut:
            raise ValueError(f"cell {name}: {luts} LUTs exceeds {ctype} capacity {max_lut}")
        if ffs > max_ff:
            raise ValueError(f"cell {name}: {ffs} FFs exceeds {ctype} capacity {max_ff}")
        if comb_depth < 1:
            raise ValueError(f"cell {name}: comb_depth must be >= 1")
        self.name = name
        self.ctype = ctype
        self.placement = placement
        self.locked = locked
        self.luts = luts
        self.ffs = ffs
        self.comb_depth = comb_depth
        self.seq = spec.sequential if seq is None else seq
        self.module = module

    # -- convenience -------------------------------------------------------

    @property
    def spec(self):
        return cell_type(self.ctype)

    @property
    def is_placed(self) -> bool:
        return self.placement is not None

    def resources(self) -> dict[str, int]:
        """Resources consumed by this cell (LUT/FF actuals, site otherwise)."""
        if self.ctype == "SLICE":
            return {"LUT": self.luts, "FF": self.ffs, "SLICE": 1}
        return dict(self.spec.max_resources) | {self.ctype: 1}

    def logic_delay_ps(self) -> float:
        spec = self.spec
        return spec.base_delay_ps + spec.depth_delay_ps * (self.comb_depth - 1)

    def clone(self, name: str | None = None, module: str | None = None) -> "Cell":
        """Copy (used when instantiating a module from a checkpoint).

        A slot-for-slot copy: the original went through ``__init__``'s
        checks, so the copy is not validated a second time.
        """
        out = Cell.__new__(Cell)
        out.name = name or self.name
        out.ctype = self.ctype
        out.placement = self.placement
        out.locked = self.locked
        out.luts = self.luts
        out.ffs = self.ffs
        out.comb_depth = self.comb_depth
        out.seq = self.seq
        out.module = module if module is not None else self.module
        return out

    def __repr__(self) -> str:
        where = f"@{self.placement}" if self.placement else "unplaced"
        lock = " locked" if self.locked else ""
        return f"<Cell {self.name} {self.ctype} {where}{lock}>"
