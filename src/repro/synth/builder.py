"""Netlist construction helpers shared by all component generators.

The builder produces structured cluster-level netlists: register chains
(line buffers, systolic cascades), reduction trees (accumulators),
broadcast nets (control), and boundary stream/memory ports.  These
topologies matter: placement quality, routing congestion and the timing
of the generated engines all follow from them.
"""

from __future__ import annotations

from math import ceil

from ..netlist.cell import Cell
from ..netlist.design import Design
from ..netlist.net import WORD_BITS, Net, Port
from .resources import slices_for

__all__ = ["NetlistBuilder"]


class NetlistBuilder:
    """Incrementally builds a :class:`Design` with structured topology."""

    def __init__(self, name: str) -> None:
        self.design = Design(name)
        self._net_idx = 0

    # -- cell groups -----------------------------------------------------

    def slice_group(
        self,
        group: str,
        luts: int,
        ffs: int,
        *,
        comb_depth: int = 1,
        seq: bool = True,
    ) -> list[str]:
        """Allocate slices covering a LUT/FF budget, distributing resources.

        Returns the created cell names.  The per-slice LUT/FF load respects
        library capacity; the final slice absorbs the remainder.
        """
        n = slices_for(luts, ffs)
        if n == 0:
            return []
        names: list[str] = []
        lut_left, ff_left = max(luts, 0), max(ffs, 0)
        for i in range(n):
            remaining = n - i
            lut_i = min(8, ceil(lut_left / remaining)) if lut_left else 0
            ff_i = min(16, ceil(ff_left / remaining)) if ff_left else 0
            lut_left -= lut_i
            ff_left -= ff_i
            name = f"{group}[{i}]"
            self.design.new_cell(
                name, "SLICE", luts=lut_i, ffs=ff_i, comb_depth=comb_depth, seq=seq
            )
            names.append(name)
        return names

    def dsp_group(self, group: str, n: int, *, comb_depth: int = 1) -> list[str]:
        names = [f"{group}[{i}]" for i in range(n)]
        for name in names:
            self.design.new_cell(name, "DSP48E2", comb_depth=comb_depth)
        return names

    def bram_group(self, group: str, n: int) -> list[str]:
        names = [f"{group}[{i}]" for i in range(n)]
        for name in names:
            self.design.new_cell(name, "RAMB36")
        return names

    # -- connectivity ----------------------------------------------------

    def _net_name(self, hint: str) -> str:
        self._net_idx += 1
        return f"{hint}_{self._net_idx}"

    def chain(self, cells: list[str], hint: str, width: int = WORD_BITS) -> list[Net]:
        """Connect cells in a shift-register / systolic cascade."""
        nets = []
        for a, b in zip(cells, cells[1:]):
            nets.append(self.design.connect(self._net_name(hint), a, [b], width=width))
        return nets

    def reduce_tree(
        self, cells: list[str], hint: str, width: int = WORD_BITS, block: int = 16
    ) -> list[Net]:
        """Locality-friendly reduction over *cells*; cell 0 is the root.

        Consecutive cells chain in blocks of *block* (adders/comparators
        reduce locally along a carry-style chain), and block heads reduce
        through a small heap tree.  Pure heap indexing would create tree
        edges between far-apart indices that no placer can keep short;
        chained blocks keep almost every edge between index-neighbours.
        """
        nets = []
        heads: list[str] = []
        for start in range(0, len(cells), block):
            seg = cells[start : start + block]
            heads.append(seg[0])
            for child, parent in zip(seg[1:], seg):
                nets.append(
                    self.design.connect(self._net_name(hint), child, [parent], width=width)
                )
        for i in range(1, len(heads)):
            parent = heads[(i - 1) // 2]
            nets.append(
                self.design.connect(self._net_name(hint), heads[i], [parent], width=width)
            )
        return nets

    def fanout(
        self, src: str, dests: list[str], hint: str, width: int = 1, arity: int = 12
    ) -> Net | None:
        """Broadcast from *src* to every cell in *dests*.

        Large broadcasts are implemented as a bounded-arity distribution
        tree through the destination cells themselves (level-order):
        unbuffered 100+-sink nets neither exist in real fabrics nor route
        sanely, so each net carries at most *arity* sinks.  Returns the
        root net.
        """
        dests = [d for d in dests if d != src]
        if not dests:
            return None
        if len(dests) <= arity:
            return self.design.connect(self._net_name(hint), src, dests, width=width)
        root = self.design.connect(self._net_name(hint), src, dests[:arity], width=width)
        # level-order: dests[i] drives the chunk starting at arity*(i+1)
        for i, parent in enumerate(dests):
            start = arity * (i + 1)
            if start >= len(dests):
                break
            children = dests[start : start + arity]
            self.design.connect(self._net_name(hint), parent, children, width=width)
        return root

    def link(self, src: str, dst: str, hint: str, width: int = WORD_BITS) -> Net:
        return self.design.connect(self._net_name(hint), src, [dst], width=width)

    def distribute(
        self, srcs: list[str], dests: list[str], hint: str, width: int = WORD_BITS
    ) -> list[Net]:
        """Connect sources to destinations round-robin (e.g. BRAM banks
        feeding DSP columns)."""
        if not srcs or not dests:
            return []
        buckets: list[list[str]] = [[] for _ in srcs]
        for j, dst in enumerate(dests):
            buckets[j % len(srcs)].append(dst)
        nets = []
        for src, sinks in zip(srcs, buckets):
            if sinks:
                nets.append(self.design.connect(self._net_name(hint), src, sinks, width=width))
        return nets

    # -- boundary ports ----------------------------------------------------

    def input_port(
        self, name: str, sinks: list[str], *, width: int = WORD_BITS, protocol: str = "stream"
    ) -> Port:
        net = self.design.connect(self._net_name(f"port_{name}"), None, sinks, width=width)
        return self.design.add_port(Port(name, "in", net.name, width=width, protocol=protocol))

    def output_port(
        self, name: str, driver: str, *, width: int = WORD_BITS, protocol: str = "stream"
    ) -> Port:
        net = self.design.connect(self._net_name(f"port_{name}"), driver, [], width=width)
        return self.design.add_port(Port(name, "out", net.name, width=width, protocol=protocol))

    def clock(self, name: str = "clk") -> Port:
        """Add the clock port/net reaching every sequential cell.

        Clock nets are excluded from general routing (dedicated network);
        the OOC flow records the HD.CLK_SRC stub in design metadata.
        """
        sinks = [c.name for c in self.design.cells.values() if c.seq]
        net = Net(f"{name}_net", None, sinks, is_clock=True)
        self.design.add_net(net)
        return self.design.add_port(Port(name, "in", net.name, width=1))

    # -- finishing ----------------------------------------------------------

    def finish(self, **metadata) -> Design:
        """Attach metadata, validate structure, and return the design."""
        self.design.metadata.update(metadata)
        self.design.validate()
        return self.design
