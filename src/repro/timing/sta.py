"""Static timing analysis.

Register-to-register analysis over the cluster netlist: sequential cells
launch at clock-to-out, combinational cells propagate worst-case arrival
through their logic, and every sequential input imposes
``arrival + setup <= period``.  Clock nets are excluded (dedicated
network).  The achieved Fmax is ``1 / (worst path + clock overhead)``.

Combinational loops are a design error and raise :class:`TimingError`.

Two engines produce the same :class:`TimingReport`, bit for bit:

* :func:`analyze_reference` — the direct dict-based implementation that
  rebuilds everything from scratch on every call.  It is the semantic
  oracle (the Hypothesis suite in ``tests/test_property_timing.py``
  checks the incremental engine against it, mirroring
  ``place._annealer_reference``).
* :class:`repro.timing.IncrementalSta` — a session holding a compiled
  :class:`~repro.timing.graph.TimingGraph` that is patched, not rebuilt,
  as the design mutates.  :func:`analyze` delegates to a transient
  session, so one-shot callers transparently use the fast engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..fabric.device import Device
from ..fabric.interconnect import RoutingGraph
from ..netlist.design import Design
from ..obs.span import incr, span
from .delays import DEFAULT_DELAYS, DelayModel

__all__ = [
    "TimingReport",
    "TimingError",
    "analyze",
    "analyze_reference",
    "clock_terms",
    "combinational_loops",
]


def clock_terms(design: Design, delays: DelayModel) -> tuple[float, float]:
    """``(clock_overhead_ps, clock_insertion_ps)`` for one report.

    Designs without a synthesized clock tree pay the flat
    :attr:`~repro.timing.delays.DelayModel.clock_overhead_ps` and report
    zero insertion delay.  After :func:`repro.eco.run_cts` has recorded
    its tree in ``design.metadata["cts"]``, the measured worst skew is
    added to the overhead (launch and capture edges can disagree by at
    most that much) and the worst insertion delay is surfaced once in
    :attr:`TimingReport.clock_insertion_ps`.  Both engines — the
    reference and the compiled graph — report through this single
    helper, which is what keeps the CTS terms bit-identical and applied
    exactly once no matter how often the design is re-analyzed.
    """
    cts = design.metadata.get("cts")
    if not cts:
        return delays.clock_overhead_ps, 0.0
    return (
        delays.clock_overhead_ps + float(cts.get("skew_ps", 0.0)),
        float(cts.get("insertion_ps", 0.0)),
    )


class TimingError(ValueError):
    """Raised on unanalyzable designs (e.g. combinational loops)."""


@dataclass
class TimingReport:
    """Result of one STA run.

    ``critical_path`` lists ``(cell, via_net)`` hops from the launching
    register to the capturing register (the first entry's ``via_net`` is
    ``None``).

    ``n_paths`` counts timing *paths*, one per data edge landing on a
    sequential cell input — a register fed by three nets (or three sinks
    of one net) contributes three, not one.  It is **not** the number of
    distinct endpoint cells.
    """

    design: str
    period_ps: float
    clock_overhead_ps: float
    critical_path: list[tuple[str, str | None]] = field(default_factory=list)
    n_paths: int = 0
    #: Clock-tree source-to-sink latency (CTS).  Informational: common to
    #: launch and capture edges, so it cancels out of the period — only
    #: the *skew*, already folded into ``clock_overhead_ps`` by
    #: :func:`clock_terms`, costs Fmax.
    clock_insertion_ps: float = 0.0

    @property
    def fmax_mhz(self) -> float:
        return 1e6 / (self.period_ps + self.clock_overhead_ps)

    @property
    def critical_cells(self) -> list[str]:
        return [cell for cell, _ in self.critical_path]

    def summary(self) -> str:
        path = " -> ".join(self.critical_cells[:6])
        more = "..." if len(self.critical_path) > 6 else ""
        return (
            f"{self.design}: Fmax {self.fmax_mhz:.1f} MHz "
            f"(data path {self.period_ps:.0f} ps, {self.n_paths} paths)\n"
            f"  critical: {path}{more}"
        )


def analyze(
    design: Design,
    device: Device | None = None,
    graph: RoutingGraph | None = None,
    delays: DelayModel = DEFAULT_DELAYS,
) -> TimingReport:
    """Run STA on *design* and return the worst register-to-register path.

    One-shot entry point: delegates to a transient
    :class:`~repro.timing.IncrementalSta` session, so it pays the graph
    compile once and discards it.  Callers analyzing the same design
    repeatedly (flows, pipelining loops) should hold a session instead.
    """
    from .incremental import IncrementalSta

    return IncrementalSta(design, device, graph, delays).analyze()


def analyze_reference(
    design: Design,
    device: Device | None = None,
    graph: RoutingGraph | None = None,
    delays: DelayModel = DEFAULT_DELAYS,
) -> TimingReport:
    """Reference STA: rebuild-from-scratch oracle for the incremental engine.

    Semantically frozen — :class:`~repro.timing.IncrementalSta` must
    return bit-identical reports (period, critical path, ``n_paths``)
    and raise the same errors; the Hypothesis equivalence suite and
    ``benchmarks/bench_sta.py`` both assert against this function.
    """
    with span("timing.sta.reference", design=design.name) as sta_span:
        report = _analyze(design, device, graph, delays, sta_span)
    # Critical-path attribution: charge each hop to its module (the cell
    # name prefix), so a trace shows *which component* bounds Fmax.
    for cell, _net in report.critical_path:
        module = cell.split("/", 1)[0] if "/" in cell else "<top>"
        incr(f"timing.critical.{module}")
    return report


def _analyze(
    design: Design,
    device: Device | None,
    graph: RoutingGraph | None,
    delays: DelayModel,
    sta_span,
) -> TimingReport:
    cells = design.cells
    # Incoming data edges per cell: (src_cell, net_name, delay_ps)
    fan_in: dict[str, list[tuple[str, str, float]]] = {name: [] for name in cells}

    for net in design.nets.values():
        if net.is_clock or net.driver is None:
            continue
        for i, sink in enumerate(net.sinks):
            if sink not in cells:
                continue
            delay = delays.net_delay_ps(design, net, i, device, graph)
            fan_in[sink].append((net.driver, net.name, delay))

    # Build combinational-propagation order: edges into comb cells only.
    indeg: dict[str, int] = {}
    comb_edges: dict[str, list[str]] = {name: [] for name in cells}
    for dst, edges in fan_in.items():
        if cells[dst].seq:
            continue
        indeg[dst] = len(edges)
        for src, _net, _d in edges:
            comb_edges[src].append(dst)

    # out_time[c]: data-valid time at cell output relative to clock edge.
    out_time: dict[str, float] = {}
    best_pred: dict[str, tuple[str, str] | None] = {}
    queue: deque[str] = deque()
    for name, cell in cells.items():
        if cell.seq:
            out_time[name] = delays.logic_delay_ps(cell)
            best_pred[name] = None
            queue.append(name)
        elif indeg.get(name, 0) == 0:
            # Combinational cell with no data inputs (constant generator).
            out_time[name] = delays.logic_delay_ps(cell)
            best_pred[name] = None
            queue.append(name)

    processed = 0
    resolved: set[str] = set(out_time)
    while queue:
        src = queue.popleft()
        processed += 1
        for dst in comb_edges[src]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                arr, pred = _worst_arrival(dst, fan_in, out_time)
                out_time[dst] = arr + delays.logic_delay_ps(cells[dst])
                best_pred[dst] = pred
                resolved.add(dst)
                queue.append(dst)

    unresolved = [n for n, d in indeg.items() if d > 0]
    if unresolved:
        loops = combinational_loops(design)
        if loops:
            detail = "; ".join(
                ", ".join(loop[:5]) + (f" (+{len(loop) - 5} more)" if len(loop) > 5 else "")
                for loop in loops[:3]
            )
        else:
            detail = f"{sorted(unresolved)[:5]} (+{max(0, len(unresolved) - 5)} more)"
        raise TimingError(
            f"design {design.name}: combinational loop involving {detail}"
        )

    # Path endpoints: sequential cell inputs.
    worst = 0.0
    worst_end: tuple[str, tuple[str, str] | None] | None = None
    n_paths = 0
    for dst, edges in fan_in.items():
        if not cells[dst].seq:
            continue
        for src, net_name, delay in edges:
            if src not in out_time:
                continue
            n_paths += 1
            total = out_time[src] + delay + delays.setup_ps(cells[dst])
            if total > worst:
                worst = total
                worst_end = (dst, (src, net_name))

    overhead, insertion = clock_terms(design, delays)
    if worst_end is None:
        # Purely combinational or empty design: report logic depth only.
        worst = max(out_time.values(), default=0.0)
        sta_span.set(period_ps=round(worst, 3), n_paths=0)
        return TimingReport(design.name, worst, overhead, [], 0, insertion)

    # Reconstruct the critical path.
    path: list[tuple[str, str | None]] = []
    end_cell, hop = worst_end
    path.append((end_cell, hop[1]))
    cursor: str | None = hop[0]
    guard = 0
    while cursor is not None and guard < len(cells) + 1:
        pred = best_pred.get(cursor)
        path.append((cursor, pred[1] if pred else None))
        cursor = pred[0] if pred else None
        guard += 1
    path.reverse()

    sta_span.set(period_ps=round(worst, 3), n_paths=n_paths, depth=len(path))
    return TimingReport(design.name, worst, overhead, path, n_paths, insertion)


def combinational_loops(design: Design) -> list[list[str]]:
    """Cycles through combinational cells only, as sorted cell-name lists.

    Computes the strongly-connected components of the data-net subgraph
    restricted to combinational cells (iterative Tarjan — stock designs
    chain thousands of cells deep, so recursion is off the table) and
    returns every component of size > 1, plus single cells with a
    self-edge.  STA raises :class:`TimingError` for exactly these;
    DRC rule ``NET-005`` reports them without raising.
    """
    cells = design.cells
    edges: dict[str, list[str]] = {n: [] for n, c in cells.items() if not c.seq}
    self_loops: set[str] = set()
    for net in design.nets.values():
        if net.is_clock or net.driver is None or net.driver not in edges:
            continue
        for sink in net.sinks:
            if sink in edges:
                edges[net.driver].append(sink)
                if sink == net.driver:
                    self_loops.add(sink)

    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    sccs: list[list[str]] = []

    for root in edges:
        if root in index:
            continue
        # Iterative Tarjan: (node, iterator position) work stack.
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, ptr = work.pop()
            if ptr == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = edges[node]
            while ptr < len(succs):
                succ = succs[ptr]
                ptr += 1
                if succ not in index:
                    work.append((node, ptr))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or component[0] in self_loops:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    sccs.sort()
    return sccs


def _worst_arrival(
    dst: str,
    fan_in: dict[str, list[tuple[str, str, float]]],
    out_time: dict[str, float],
) -> tuple[float, tuple[str, str] | None]:
    worst = 0.0
    pred: tuple[str, str] | None = None
    for src, net_name, delay in fan_in[dst]:
        if src not in out_time:
            continue
        arr = out_time[src] + delay
        if arr > worst:
            worst = arr
            pred = (src, net_name)
    return worst, pred
