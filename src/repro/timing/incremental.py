"""Incremental STA sessions.

An :class:`IncrementalSta` owns one compiled :class:`~repro.timing.graph.
TimingGraph` for one :class:`~repro.netlist.Design` and serves every
timing query a flow makes against successive states of that design —
``pipeline_to_target``'s split/revert loop, DRC clock gates, the final
flow report.  Each :meth:`analyze` scans the design for changes, re-walks
only the dirty cone, and returns a :class:`~repro.timing.sta.TimingReport`
bit-identical to :func:`~repro.timing.sta.analyze_reference`; an
unchanged design returns the memoized report without touching the graph,
so a flow run analyzes each design state at most once.

Sessions are observable: every analysis opens a ``timing.sta`` span
annotated with dirty-set size, cells repropagated, and delay-memo
hit/miss counts, and feeds ``timing.memo.*`` / ``timing.sta.*`` counters
(:mod:`repro.obs` — all no-ops without an active tracer).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fabric.device import Device
from ..fabric.interconnect import RoutingGraph
from ..netlist.design import Design
from ..obs.span import incr, span
from .delays import DEFAULT_DELAYS, DelayModel
from .graph import TimingGraph
from .sta import TimingReport
from .sta import combinational_loops as _combinational_loops

__all__ = ["IncrementalSta", "StaSessionStats"]

#: Reference implementation this tier is asserted bit-identical to
#: (the oracle contract; checked by ORC lint rules).
ORACLE = "repro.timing.sta.analyze_reference"


@dataclass
class StaSessionStats:
    """Cumulative counters for one session (exposed for tests/benchmarks)."""

    analyses: int = 0
    cached: int = 0             # analyses answered without touching the graph
    repropagated_cells: int = 0
    memo_hits: int = 0          # edge delays revalidated without recompute
    memo_misses: int = 0        # edge delays (re)computed

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


class IncrementalSta:
    """One timing session over one (mutating) design.

    Parameters mirror :func:`repro.timing.sta.analyze`.  The session
    compiles lazily on first use, and relies on the immutability contract
    in :mod:`repro.timing.graph` (e.g. no cell's ``comb_depth`` changes in
    place).
    """

    def __init__(
        self,
        design: Design,
        device: Device | None = None,
        graph: RoutingGraph | None = None,
        delays: DelayModel = DEFAULT_DELAYS,
    ) -> None:
        self.design = design
        self.device = device
        self.graph = graph
        self.delays = delays
        self.stats = StaSessionStats()
        self._tg: TimingGraph | None = None
        self._report: TimingReport | None = None
        self._report_rev = -1
        self._loops: list[list[str]] | None = None
        self._loops_rev = -1

    # -- queries -------------------------------------------------------------

    def analyze(self) -> TimingReport:
        """Timing of the design's *current* state (memoized when unchanged)."""
        self.stats.analyses += 1
        with span("timing.sta", design=self.design.name, engine="incremental") as s:
            tg = self._tg
            if tg is None:
                tg = self._tg = TimingGraph(
                    self.design, self.device, self.graph, self.delays
                )
                self._report = None
            hits0, misses0 = tg.memo_hits, tg.memo_misses
            try:
                tg.sync()
                if (
                    self._report is not None
                    and self._report_rev == tg.state_rev
                    and not tg.pending_dirty
                ):
                    self.stats.cached += 1
                    incr("timing.sta.cached")
                    s.set(cached=True, period_ps=round(self._report.period_ps, 3))
                    return self._report
                n_dirty = len(tg.pending_dirty)
                n_prop = tg.repropagate()
                report = tg.report()
            except Exception:
                # A raised analysis (comb loop, dangling reference) leaves
                # no trustworthy compiled state; recompile on next use.
                self._tg = None
                self._report = None
                raise
            self._report = report
            self._report_rev = tg.state_rev
            hits = tg.memo_hits - hits0
            misses = tg.memo_misses - misses0
            self.stats.repropagated_cells += n_prop
            self.stats.memo_hits += hits
            self.stats.memo_misses += misses
            incr("timing.memo.hit", hits)
            incr("timing.memo.miss", misses)
            s.set(
                period_ps=round(report.period_ps, 3),
                n_paths=report.n_paths,
                depth=len(report.critical_path),
                dirty=n_dirty,
                repropagated=n_prop,
                memo_hits=hits,
                memo_misses=misses,
            )
        # Critical-path attribution: charge each hop to its module (the
        # cell name prefix), so a trace shows which component bounds Fmax.
        for cell, _net in report.critical_path:
            module = cell.split("/", 1)[0] if "/" in cell else "<top>"
            incr(f"timing.critical.{module}")
        return report

    def fmax_mhz(self) -> float:
        """Achieved Fmax of the current state, through the session memo."""
        return self.analyze().fmax_mhz

    def combinational_loops(self) -> list[list[str]]:
        """Comb-only cycles, memoized on netlist topology.

        Pure topology: never computes delays or arrivals, so it works on
        designs :meth:`analyze` would reject (DRC rule ``NET-005`` runs
        it on arbitrary inputs).
        """
        tg = self._tg
        if tg is None:
            return _combinational_loops(self.design)
        try:
            tg.sync()
        except Exception:  # pragma: no cover - sync is defensive here
            self._tg = None
            self._report = None
            return _combinational_loops(self.design)
        if self._loops is None or self._loops_rev != tg.topo_rev:
            self._loops = _combinational_loops(self.design)
            self._loops_rev = tg.topo_rev
        return self._loops
