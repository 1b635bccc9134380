"""``opt_design`` analogue: conservative netlist cleanup.

Removes dead nets (no sinks and not referenced by a port) and reports
what a logic optimizer would see.  Deliberately conservative — the
cluster netlists are already packed — but it gives the flow the same
stage structure as the vendor tool (opt -> place -> phys_opt -> route).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netlist.design import Design

__all__ = ["OptStats", "opt_design"]

#: A data net with more sinks than this is reported as high-fanout.
HIGH_FANOUT = 64


@dataclass(frozen=True)
class OptStats:
    """What the optimizer changed/saw."""

    removed_nets: int
    high_fanout_nets: int
    n_cells: int
    n_nets: int


def opt_design(design: Design) -> OptStats:
    """Clean *design* in place; returns statistics."""
    port_nets = {p.net for p in design.ports.values()}
    dead = [
        net.name
        for net in design.nets.values()
        if not net.sinks and net.name not in port_nets and not net.is_clock
    ]
    for name in dead:
        del design.nets[name]
    high_fanout = sum(
        1
        for net in design.nets.values()
        if not net.is_clock and len(net.sinks) > HIGH_FANOUT
    )
    return OptStats(
        removed_nets=len(dead),
        high_fanout_nets=high_fanout,
        n_cells=len(design.cells),
        n_nets=len(design.nets),
    )
