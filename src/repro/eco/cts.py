"""Clock-tree synthesis: buffered H-tree insertion over the fabric.

The flat model clocks every sequential cell from one ideal net and folds
all clock non-idealities into ``DelayModel.clock_overhead_ps``.  This
module replaces that ideal net with an explicit buffered distribution
tree — recursive median bisection of the sink placements (an H-tree on a
uniform fabric), one ``BUFCE`` cell per tree node hosted on the nearest
spare CLB site — and *measures* its skew and insertion delay with the
same wire-delay model STA uses.

Every sink sits at the same tree depth (single-child nodes are chained
where a bisection comes up empty), so all sinks pay an identical buffer
count and skew is purely wire asymmetry.  If the measured skew exceeds
the bound, the leaf capacity is halved — smaller leaves sit closer to
their sinks — until it fits or :class:`CtsError` gives up.

Results land in ``design.metadata["cts"]`` where
:func:`repro.timing.sta.clock_terms` picks them up: the skew joins the
clock overhead (it genuinely costs Fmax), the insertion delay is
reported once in :attr:`TimingReport.clock_insertion_ps` (common to
launch and capture paths, it cancels out of the period).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..fabric.device import Device
from ..fabric.pblock import PBlock
from ..netlist.cell import Cell
from ..netlist.design import Design, DesignError
from ..timing.delays import DEFAULT_DELAYS, DelayModel
from ..timing.pipeline import _free_site_near

__all__ = ["CtsError", "CtsResult", "run_cts"]

#: Skew bound of every clock tree, ps.  Snaking balances each tree level to
#: within one tile delay (~22 ps), so a handful of levels fits comfortably
#: under this.
DEFAULT_MAX_SKEW_PS = 100.0
#: Clock sinks per leaf buffer a tree starts from; halved while the skew
#: bound is missed.
MAX_LEAF_SINKS = 8


class CtsError(DesignError):
    """CTS cannot produce a legal tree under the requested bounds."""


@dataclass(frozen=True)
class CtsResult:
    """One synthesized clock tree."""

    clock: str
    n_sinks: int
    n_buffers: int
    depth: int               # buffer levels every sink passes through
    leaf_sinks: int          # accepted leaf capacity
    skew_ps: float           # max - min sink arrival
    insertion_ps: float      # worst sink arrival (root buffer input -> sink)


# -- tree planning (no design mutation) --------------------------------------


@dataclass
class _Node:
    site: tuple[int, int]
    children: list["_Node"]
    sinks: list[tuple[str, tuple[int, int]]]  # leaf payload


def _centroid(points: list[tuple[int, int]]) -> tuple[int, int]:
    n = len(points)
    return (
        int(round(sum(p[0] for p in points) / n)),
        int(round(sum(p[1] for p in points) / n)),
    )


def _alloc_site(
    device: Device,
    occupied: set[tuple[int, int]],
    near: tuple[int, int],
    pblock: PBlock | None,
    keepouts: list[PBlock],
) -> tuple[int, int]:
    """Nearest free CLB site to *near*, honoring pblock and keepouts.

    *keepouts* are the fabric regions claimed by relocated components
    (``metadata["footprints"]``): an ECO layer swap may place anywhere
    inside its region, so clock buffers must not squat there.
    """
    rejected: set[tuple[int, int]] = set()
    while True:
        site = _free_site_near(device, occupied | rejected, near, "BUFCE")
        if site is None:
            raise CtsError("no free CLB site for a clock buffer")
        if (pblock is None or pblock.contains(*site)) and not any(
            k.contains(*site) for k in keepouts
        ):
            occupied.add(site)
            return site
        rejected.add(site)


def _plan(
    sinks: list[tuple[str, tuple[int, int]]],
    levels: int,
    device: Device,
    occupied: set[tuple[int, int]],
    pblock: PBlock | None,
    keepouts: list[PBlock],
) -> _Node:
    site = _alloc_site(
        device, occupied, _centroid([p for _, p in sinks]), pblock, keepouts
    )
    if levels == 0:
        return _Node(site, [], list(sinks))
    axis = 0
    xs = [p[0] for _, p in sinks]
    ys = [p[1] for _, p in sinks]
    if max(ys) - min(ys) > max(xs) - min(xs):
        axis = 1
    ordered = sorted(sinks, key=lambda sp: (sp[1][axis], sp[1][1 - axis], sp[0]))
    half = len(ordered) // 2
    groups = [g for g in (ordered[:half], ordered[half:]) if g]
    children = [_plan(g, levels - 1, device, occupied, pblock, keepouts) for g in groups]
    return _Node(site, children, [])


def _arrivals(
    node: _Node, delays: DelayModel, buf_delay_ps: float
) -> dict[str, float]:
    """Sink arrival times from the node's input, with snaking balance.

    At every tree node the faster branches are padded with snaked wire
    to match the slowest sibling — standard zero-skew clock routing.
    Snake wire comes in whole tiles, so the balancing is quantized: the
    residual skew is real, bounded by roughly one tile delay per tree
    level, and shrinks as leaves move closer to their sinks.
    """
    seg_of = lambda a, b: delays.net_base_ps + delays.wire_delay_ps(
        abs(a[0] - b[0]) + abs(a[1] - b[1])
    )
    branches: list[tuple[float, dict[str, float]]] = []
    for child in node.children:
        branches.append((seg_of(node.site, child.site),
                         _arrivals(child, delays, buf_delay_ps)))
    for name, place in node.sinks:
        branches.append((seg_of(node.site, place), {name: 0.0}))
    target = max(seg + max(sub.values()) for seg, sub in branches)
    out: dict[str, float] = {}
    for seg, sub in branches:
        worst = seg + max(sub.values())
        pad = math.floor((target - worst) / delays.tile_delay_ps) * delays.tile_delay_ps
        for name, arrival in sub.items():
            out[name] = buf_delay_ps + seg + pad + arrival
    return out


def _count(node: _Node) -> int:
    return 1 + sum(_count(c) for c in node.children)


# -- entry point -------------------------------------------------------------


def run_cts(
    design: Design,
    device: Device,
    *,
    delays: DelayModel = DEFAULT_DELAYS,
) -> list[CtsResult]:
    """Insert a buffered clock tree under every clock net of *design*.

    Mutates the design in place: ``BUFCE`` cells named
    ``{clock}/cts_buf{i}`` appear on spare CLB sites, the original clock
    net is re-pointed at the root buffer, and ``{clock}/cts{i}`` subnets
    carry the distribution.  Tree metrics land in
    ``design.metadata["cts"]`` for :func:`~repro.timing.sta.clock_terms`.

    Raises :class:`CtsError` (before any mutation) if CTS already ran,
    a clock sink is unplaced, no spare site exists, or the skew bound is
    unreachable even at one sink per leaf.
    """
    if "cts" in design.metadata:
        raise CtsError(f"design {design.name} already has a clock tree")

    clock_nets = [n for n in design.nets.values() if n.is_clock and n.sinks]
    if not clock_nets:
        raise CtsError(f"design {design.name} has no clock net to synthesize")

    buf_delay_ps = Cell("_probe", "BUFCE").logic_delay_ps()
    occupied = {c.placement for c in design.cells.values() if c.is_placed}
    keepouts = [
        PBlock(fp[0], fp[1], fp[2], fp[3])
        for fp in design.metadata.get("footprints", {}).values()
    ]

    # Plan every tree before mutating anything.
    plans: list[tuple] = []  # (net, root, depth, leaf_cap, arrivals)
    for net in clock_nets:
        sinks = []
        for name in net.sinks:
            cell = design.cells.get(name)
            if cell is None or not cell.is_placed:
                raise CtsError(
                    f"clock sink {name!r} of net {net.name} is not placed"
                )
            sinks.append((name, cell.placement))

        leaf_cap = MAX_LEAF_SINKS
        while True:
            levels = max(0, math.ceil(math.log2(math.ceil(len(sinks) / leaf_cap)))
                         ) if len(sinks) > leaf_cap else 0
            trial_occupied = set(occupied)
            root = _plan(sinks, levels, device, trial_occupied, design.pblock,
                         keepouts)
            arrivals = _arrivals(root, delays, buf_delay_ps)
            skew = max(arrivals.values()) - min(arrivals.values())
            if skew <= DEFAULT_MAX_SKEW_PS:
                occupied.update(trial_occupied)
                plans.append((net, root, levels, leaf_cap, arrivals))
                break
            if leaf_cap == 1:
                raise CtsError(
                    f"clock {net.name}: skew {skew:.1f} ps exceeds bound "
                    f"{DEFAULT_MAX_SKEW_PS:.1f} ps even at one sink per leaf"
                )
            leaf_cap = max(1, leaf_cap // 2)

    # Commit.
    results = []
    for net, root, levels, leaf_cap, arrivals in plans:
        counter = 0

        def commit(node: _Node, clock: str = net.name) -> str:
            nonlocal counter
            i = counter
            counter += 1
            name = f"{clock}/cts_buf{i}"
            design.add_cell(Cell(name, "BUFCE", placement=node.site))
            downstream = [commit(c, clock) for c in node.children]
            downstream += [s for s, _ in node.sinks]
            design.connect(f"{clock}/cts{i}", name, downstream, is_clock=True)
            return name

        root_name = commit(root)
        net.sinks = [root_name]
        net.routes = [None]
        skew = max(arrivals.values()) - min(arrivals.values())
        results.append(CtsResult(
            clock=net.name,
            n_sinks=len(arrivals),
            n_buffers=counter,
            depth=levels + 1,
            leaf_sinks=leaf_cap,
            skew_ps=skew,
            insertion_ps=max(arrivals.values()),
        ))

    design.metadata["cts"] = {
        "skew_ps": max(r.skew_ps for r in results),
        "insertion_ps": max(r.insertion_ps for r in results),
        "n_buffers": sum(r.n_buffers for r in results),
        "max_skew_ps": DEFAULT_MAX_SKEW_PS,
        "trees": [
            {
                "clock": r.clock,
                "n_sinks": r.n_sinks,
                "n_buffers": r.n_buffers,
                "depth": r.depth,
                "leaf_sinks": r.leaf_sinks,
                "skew_ps": r.skew_ps,
                "insertion_ps": r.insertion_ps,
            }
            for r in results
        ],
    }
    return results
