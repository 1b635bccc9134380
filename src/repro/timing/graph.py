"""Compiled timing graph for incremental STA.

:func:`repro.timing.sta.analyze_reference` rebuilds its dict-based
fan-in structures and recomputes every net delay on every call.  The
:class:`TimingGraph` here compiles the same information **once** into
int-indexed flat arrays — cells become indices, data edges become
parallel arrays with precomputed delays — and then *patches* itself in
place as the design mutates (the net split / cell insert / clock-sink
add / revert edits :func:`repro.timing.pipeline.pipeline_to_target`
performs, plus arbitrary route and placement changes from the router).

Three mechanisms carry the speedup:

* **scan-based sync** — :meth:`TimingGraph.sync` diffs the design
  against its compiled snapshot in one cheap O(cells + nets + edges)
  pass: object-identity checks detect added/removed/replaced cells and
  nets, per-net ``(driver, sinks, is_clock)`` snapshots detect in-place
  rewires, and a per-edge **delay memo** keyed on route identity (or
  endpoint placements for unrouted nets) plus fanout detects stale
  delays without re-walking the routes; the routed edges a sync does
  have to (re)time — all of them on the first sync — are collected and
  measured in one :meth:`~repro.fabric.interconnect.RoutingGraph.
  path_metrics_batch` call;
* **cone-limited repropagation** — :meth:`repropagate` re-levelizes and
  recomputes arrival times only through the dirty set's transitive
  combinational fan-out, pruning cells whose (arrival, predecessor)
  pair comes out unchanged;
* **ordering stamps** — every net gets a monotonically increasing stamp
  when (re-)registered, and fan-in edge lists are kept sorted by
  ``(stamp, sink_index)``.  Because replacing a dict entry in Python
  moves it to the *end* of iteration order while in-place mutation
  keeps its position, stamps reproduce exactly the iteration order a
  fresh ``design.nets.values()`` walk would see — which makes the
  strict first-max-wins tie-breaking, and therefore the whole
  :class:`~repro.timing.sta.TimingReport`, bit-identical to the
  reference.

Contract: cell *timing* attributes (``ctype``, ``comb_depth``, ``seq``,
the spec behind ``logic_delay_ps``/``setup_ps``) are treated as
immutable once a cell is registered; placements, routes, and netlist
structure may change freely between analyses.  Route lists must be
**replaced**, not mutated in place (the router always assigns fresh
lists), since the delay memo keys on list identity.  Designs with
dangling endpoint references behave like the reference (``KeyError``).
"""

from __future__ import annotations

from collections import deque

from ..fabric.device import Device
from ..fabric.interconnect import RoutingGraph
from ..netlist.design import Design
from .delays import DEFAULT_DELAYS, DelayModel
from .sta import TimingError, TimingReport, clock_terms, combinational_loops

__all__ = ["TimingGraph"]


class TimingGraph:
    """Flat-array timing graph, kept in sync with a mutating design.

    Built empty and populated by the first :meth:`sync`; afterwards each
    ``sync`` is an incremental diff.  ``state_rev`` advances whenever a
    sync changes anything a report could see; ``topo_rev`` advances only
    on structural (cell/net) changes — loop detection memoizes on it.
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

        # Cells: index-stable arrays; removal marks dead, never compacts.
        self.cell_index: dict[str, int] = {}   # alive cells only
        self.cell_names: list[str] = []
        self.cell_objs: list = []
        self.cell_alive: list[bool] = []
        self.cell_seq: list[bool] = []
        self.cell_logic: list[float] = []
        self.cell_setup: list[float] = []
        self.n_alive = 0

        # Edges: one entry per (net, sink) pair landing on a known cell.
        self.e_src: list[int] = []             # -1 when the driver is unknown
        self.e_dst: list[int] = []
        self.e_net: list[str] = []
        self.e_netobj: list = []
        self.e_sink: list[int] = []            # sink index within the net
        self.e_stamp: list[int] = []           # owning net's ordering stamp
        self.e_delay: list[float] = []
        self.e_alive: list[bool] = []
        # Delay-memo keys: route list identity (routed) or endpoint
        # placements (unrouted), plus the fanout both formulas use.
        self.e_route: list = []
        self.e_fanout: list[int] = []
        self.e_srcpl: list = []
        self.e_dstpl: list = []
        self.n_dead_edges = 0
        # Routed edges awaiting this sync's batched path measurement.
        self._routed_batch: list[int] = []

        self.fan_in: list[list[int]] = []      # sorted by (stamp, sink index)
        self.fan_out: list[list[int]] = []     # unordered

        # Nets: stamp + structural snapshot + owned edge ids.
        self.net_stamp: dict[str, int] = {}
        self.net_snap: dict[str, tuple] = {}
        self.net_edges: dict[str, list[int]] = {}
        self.nets_missing: set[str] = set()    # nets with absent endpoints
        self.net_errors: dict[str, str] = {}   # net -> unknown driver name
        self._next_stamp = 0

        # Propagation state (valid for alive cells after repropagate).
        self.out_time: list[float] = []
        self.best_pred: list[int] = []         # edge id or -1
        self.pending_dirty: set[int] = set()

        self.state_rev = 0
        self.topo_rev = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self._clock_terms: tuple[float, float] | None = None

    # -- sync: diff the design against the compiled snapshot ----------------

    def sync(self) -> None:
        """Fold any design mutations since the last sync into the graph."""
        design = self.design
        dirty = self.pending_dirty
        n_dirty0 = len(dirty)
        structural = False
        fresh_mark = len(self.e_src)
        self._routed_batch = []  # a sync that raised may have left one behind

        # Cells: detect additions, removals, and same-name replacements.
        cells = design.cells
        added: list[str] = []
        matched = 0
        removed: list[int] = []
        for name, cell in cells.items():
            idx = self.cell_index.get(name)
            if idx is None:
                added.append(name)
            elif self.cell_objs[idx] is not cell:
                removed.append(idx)
                added.append(name)
            else:
                matched += 1
        if matched + len(removed) != self.n_alive:
            removed.extend(
                idx for name, idx in list(self.cell_index.items())
                if name not in cells
            )
        for idx in removed:
            self._remove_cell(idx, dirty)
            structural = True
        for name in added:
            self._add_cell(name, cells[name], dirty)
            structural = True
        # Nets: identity says replaced, the snapshot says rewired in place.
        matched_nets = 0
        new_nets: list = []
        for name, net in design.nets.items():
            snap = self.net_snap.get(name)
            if snap is None:
                new_nets.append(net)
                continue
            obj, driver, sinks, is_clock = snap
            if obj is not net:
                # del + re-add moved the entry to the end of dict order:
                # drop and re-register below with a fresh stamp.
                self._drop_net(name, dirty)
                new_nets.append(net)
                structural = True
                continue
            matched_nets += 1
            if net.driver != driver or net.is_clock != is_clock or net.sinks != sinks:
                self._reregister_net(net, dirty)
                structural = True
        if len(self.net_stamp) != matched_nets:
            nets = design.nets
            for name in [n for n in self.net_stamp if n not in nets]:
                self._drop_net(name, dirty)
                structural = True
        for net in new_nets:
            self._register_net(net, dirty, stamp=None)
            structural = True

        # Ordering stamps must increase along dict iteration order — that
        # is what makes the stamp-sorted fan-in reproduce a fresh
        # ``design.nets.values()`` walk.  A del + re-add of the *same*
        # net object (a pipeline or ECO revert restoring a saved net)
        # moves the entry to the end of dict order while the identity
        # snapshot above still matches, so its stale stamp — and the
        # delay memo entries hanging off the old edges — would silently
        # diverge from the reference on arrival ties, and the memoized
        # report could be served for a changed design.  Re-stamp any net
        # that fell behind the running maximum; each repair raises the
        # maximum, so a displaced suffix is re-stamped in dict order and
        # monotonicity is restored.
        prev_stamp = -1
        for name in design.nets:
            stamp = self.net_stamp.get(name)
            if stamp is None:  # pragma: no cover - all nets registered above
                continue
            if stamp < prev_stamp:
                self._reregister_net(design.nets[name], dirty, fresh_stamp=True)
                stamp = self.net_stamp[name]
                structural = True
            prev_stamp = stamp

        # Nets with missing endpoints sit outside the per-edge memo (their
        # error status depends on routes and the cell set); re-register
        # them every sync so it never goes stale.  Valid designs never
        # have any, so this is free on the hot path.
        for name in list(self.nets_missing):
            net = design.nets.get(name)
            if net is not None and self.net_snap[name][0] is net:
                self._reregister_net(net, dirty)

        # Delay memo: revalidate every pre-existing live edge.
        graph_ok = self.graph is not None
        for eid in range(fresh_mark):
            if not self.e_alive[eid]:
                continue
            src = self.e_src[eid]
            net = self.e_netobj[eid]
            i = self.e_sink[eid]
            route = net.routes[i] if i < len(net.routes) else None
            if src < 0:
                continue  # unknown driver: delay is an error placeholder
            if route is not None and graph_ok:
                if self.e_route[eid] is route and self.e_fanout[eid] == len(net.sinks):
                    self.memo_hits += 1
                    continue
            elif (
                self.e_route[eid] is None
                and self.e_fanout[eid] == len(net.sinks)
                and self.cell_objs[src].placement == self.e_srcpl[eid]
                and self.cell_objs[self.e_dst[eid]].placement == self.e_dstpl[eid]
            ):
                self.memo_hits += 1
                continue
            self._recompute_edge(eid, net, dirty)
        self._time_routed_batch(dirty)

        # CTS skew/insertion live in design metadata, outside the
        # cell/net diff — track them here so a clock-tree (re)build alone
        # invalidates the memoized report.
        terms = clock_terms(design, self.delays)
        terms_changed = terms != self._clock_terms
        self._clock_terms = terms

        if structural or terms_changed or len(dirty) != n_dirty0:
            self.state_rev += 1
        if structural:
            self.topo_rev += 1

    # -- cell bookkeeping ----------------------------------------------------

    def _add_cell(self, name: str, cell, dirty: set[int]) -> None:
        idx = len(self.cell_names)
        self.cell_index[name] = idx
        self.cell_names.append(name)
        self.cell_objs.append(cell)
        self.cell_alive.append(True)
        self.cell_seq.append(bool(cell.seq))
        self.cell_logic.append(self.delays.logic_delay_ps(cell))
        self.cell_setup.append(self.delays.setup_ps(cell))
        self.fan_in.append([])
        self.fan_out.append([])
        # Seed: correct for sequential and zero-fan-in combinational
        # cells; dirty marking repropagates the rest.
        self.out_time.append(self.cell_logic[idx])
        self.best_pred.append(-1)
        self.n_alive += 1
        dirty.add(idx)

    def _remove_cell(self, idx: int, dirty: set[int]) -> None:
        name = self.cell_names[idx]
        if self.cell_index.get(name) == idx:
            del self.cell_index[name]
        self.cell_alive[idx] = False
        self.n_alive -= 1
        dirty.discard(idx)
        for eid in self.fan_in[idx]:
            if self.e_alive[eid]:
                self._kill_edge(eid)
                self.nets_missing.add(self.e_net[eid])
        for eid in self.fan_out[idx]:
            if self.e_alive[eid]:
                self._kill_edge(eid)
                dst = self.e_dst[eid]
                if dst >= 0 and self.cell_alive[dst]:
                    dirty.add(dst)
                self.nets_missing.add(self.e_net[eid])
        self.fan_in[idx] = []
        self.fan_out[idx] = []

    # -- net bookkeeping -----------------------------------------------------

    def _kill_edge(self, eid: int) -> None:
        self.e_alive[eid] = False
        self.n_dead_edges += 1

    def _drop_net(self, name: str, dirty: set[int]) -> None:
        for eid in self.net_edges.get(name, ()):
            if self.e_alive[eid]:
                self._kill_edge(eid)
                dst = self.e_dst[eid]
                if dst >= 0 and self.cell_alive[dst]:
                    dirty.add(dst)
        del self.net_stamp[name]
        del self.net_snap[name]
        del self.net_edges[name]
        self.nets_missing.discard(name)
        self.net_errors.pop(name, None)

    def _reregister_net(self, net, dirty: set[int], *, fresh_stamp: bool = False) -> None:
        """Rebuild a net's edges keeping its ordering stamp (in-place edit).

        ``fresh_stamp=True`` re-stamps the net at the back of the ordering
        instead — used when a same-object del + re-add moved its dict
        position without changing its contents.
        """
        stamp = None if fresh_stamp else self.net_stamp[net.name]
        for eid in self.net_edges[net.name]:
            if self.e_alive[eid]:
                self._kill_edge(eid)
                dst = self.e_dst[eid]
                if dst >= 0 and self.cell_alive[dst]:
                    dirty.add(dst)
        self._register_net(net, dirty, stamp=stamp)

    def _register_net(self, net, dirty: set[int], stamp: int | None) -> None:
        name = net.name
        # A fresh stamp exceeds every stamp handed out before it, so the
        # net's edges go to the back of their fan-in lists as they come.
        fresh = stamp is None
        if fresh:
            stamp = self._next_stamp
            self._next_stamp += 1
        edges: list[int] = []
        missing = False
        error: str | None = None
        if not net.is_clock and net.driver is not None:
            src = self.cell_index.get(net.driver, -1)
            if src < 0:
                missing = True
            for i, sink in enumerate(net.sinks):
                dst = self.cell_index.get(sink)
                if dst is None:
                    missing = True
                    continue
                eid = len(self.e_src)
                self.e_src.append(src)
                self.e_dst.append(dst)
                self.e_net.append(name)
                self.e_netobj.append(net)
                self.e_sink.append(i)
                self.e_stamp.append(stamp)
                self.e_delay.append(0.0)
                self.e_alive.append(True)
                self.e_route.append(None)
                self.e_fanout.append(-1)
                self.e_srcpl.append(None)
                self.e_dstpl.append(None)
                if src < 0:
                    # Mirror the reference for unknown drivers: the
                    # estimate path KeyErrors on the driver lookup, and a
                    # combinational sink KeyErrors at the comb-edge build
                    # — but a *routed* edge into a sequential sink is
                    # silently excluded from the endpoint scan.  Defer
                    # raising to analyze time so pure topology queries
                    # (combinational_loops) still work.
                    route = net.routes[i] if i < len(net.routes) else None
                    routed = route is not None and self.graph is not None
                    if not routed or not self.cell_seq[dst]:
                        error = error or net.driver
                else:
                    self._recompute_edge(eid, net, dirty)
                if fresh:
                    self.fan_in[dst].append(eid)
                else:
                    self._fanin_insert(dst, eid)
                if src >= 0:
                    self.fan_out[src].append(eid)
                dirty.add(dst)
                edges.append(eid)
        self.net_edges[name] = edges
        self.net_snap[name] = (net, net.driver, list(net.sinks), net.is_clock)
        self.net_stamp[name] = stamp
        if missing:
            self.nets_missing.add(name)
        else:
            self.nets_missing.discard(name)
        if error is not None:
            self.net_errors[name] = error
        else:
            self.net_errors.pop(name, None)

    def _fanin_insert(self, dst: int, eid: int) -> None:
        """Keep fan_in[dst] sorted by (net stamp, sink index)."""
        lst = self.fan_in[dst]
        key = (self.e_stamp[eid], self.e_sink[eid])
        pos = len(lst)
        while pos > 0:
            prev = lst[pos - 1]
            if (self.e_stamp[prev], self.e_sink[prev]) <= key:
                break
            pos -= 1
        lst.insert(pos, eid)

    def _recompute_edge(self, eid: int, net, dirty: set[int]) -> None:
        i = self.e_sink[eid]
        self.memo_misses += 1
        route = net.routes[i] if i < len(net.routes) else None
        if route is not None and self.graph is not None:
            self._routed_batch.append(eid)
            return
        delay = self.delays.net_delay_ps(self.design, net, i, self.device, self.graph)
        self.e_route[eid] = None
        src = self.e_src[eid]
        self.e_srcpl[eid] = self.cell_objs[src].placement if src >= 0 else None
        self.e_dstpl[eid] = self.cell_objs[self.e_dst[eid]].placement
        self._store_delay(eid, delay, len(net.sinks), dirty)

    def _time_routed_batch(self, dirty: set[int]) -> None:
        """Time the routed edges this sync collected, all paths at once."""
        batch = self._routed_batch
        if not batch:
            return
        self._routed_batch = []
        nets = [self.e_netobj[eid] for eid in batch]
        routes = [net.routes[self.e_sink[eid]] for eid, net in zip(batch, nets)]
        tiles, crossings = self.graph.path_metrics_batch(routes)
        routed_delay_ps = self.delays.routed_delay_ps
        for eid, net, route, t, c in zip(
            batch, nets, routes, tiles.tolist(), crossings.tolist()
        ):
            fanout = len(net.sinks)
            self.e_route[eid] = route
            self.e_srcpl[eid] = None
            self.e_dstpl[eid] = None
            self._store_delay(eid, routed_delay_ps(t, c, fanout), fanout, dirty)

    def _store_delay(self, eid: int, delay: float, fanout: int, dirty: set[int]) -> None:
        self.e_fanout[eid] = fanout
        if delay != self.e_delay[eid]:
            self.e_delay[eid] = delay
            dst = self.e_dst[eid]
            if dst >= 0 and self.cell_alive[dst]:
                dirty.add(dst)

    # -- propagation ---------------------------------------------------------

    def repropagate(self) -> int:
        """Recompute arrivals through the dirty cone; return cells visited."""
        if self.net_errors:
            raise KeyError(next(iter(self.net_errors.values())))
        dirty = self.pending_dirty
        self.pending_dirty = set()
        if not dirty:
            return 0
        alive = self.cell_alive
        seq = self.cell_seq
        e_alive = self.e_alive
        e_src = self.e_src
        e_dst = self.e_dst
        seeds = [c for c in dirty if alive[c] and not seq[c]]
        cone = set(seeds)
        stack = list(seeds)
        while stack:
            c = stack.pop()
            for eid in self.fan_out[c]:
                if not e_alive[eid]:
                    continue
                d = e_dst[eid]
                if alive[d] and not seq[d] and d not in cone:
                    cone.add(d)
                    stack.append(d)
        if not cone:
            return 0
        indeg: dict[int, int] = {}
        for c in cone:
            n = 0
            for eid in self.fan_in[c]:
                if e_alive[eid] and e_src[eid] in cone:
                    n += 1
            indeg[c] = n
        queue: deque[int] = deque(c for c in cone if indeg[c] == 0)
        needs = set(seeds)
        out = self.out_time
        best = self.best_pred
        logic = self.cell_logic
        e_delay = self.e_delay
        processed = 0
        while queue:
            c = queue.popleft()
            processed += 1
            changed = False
            if c in needs:
                # Same strict first-max-wins scan as the reference's
                # _worst_arrival, over the stamp-ordered fan-in.
                worst = 0.0
                pred = -1
                for eid in self.fan_in[c]:
                    if not e_alive[eid]:
                        continue
                    s = e_src[eid]
                    if s < 0:
                        continue
                    arr = out[s] + e_delay[eid]
                    if arr > worst:
                        worst = arr
                        pred = eid
                new = worst + logic[c]
                if new != out[c] or pred != best[c]:
                    out[c] = new
                    best[c] = pred
                    changed = True
            for eid in self.fan_out[c]:
                if not e_alive[eid]:
                    continue
                d = e_dst[eid]
                if d in indeg:
                    indeg[d] -= 1
                    if changed:
                        needs.add(d)
                    if indeg[d] == 0:
                        queue.append(d)
        if processed < len(cone):
            unresolved = [self.cell_names[c] for c in cone if indeg.get(c, 0) > 0]
            self._raise_loop(unresolved)
        return processed

    def _raise_loop(self, unresolved: list[str]) -> None:
        loops = combinational_loops(self.design)
        if loops:
            detail = "; ".join(
                ", ".join(loop[:5]) + (f" (+{len(loop) - 5} more)" if len(loop) > 5 else "")
                for loop in loops[:3]
            )
        else:
            detail = f"{sorted(unresolved)[:5]} (+{max(0, len(unresolved) - 5)} more)"
        raise TimingError(
            f"design {self.design.name}: combinational loop involving {detail}"
        )

    # -- reporting -----------------------------------------------------------

    def report(self) -> TimingReport:
        """Endpoint scan + path reconstruction, reference iteration order."""
        alive = self.cell_alive
        seq = self.cell_seq
        names = self.cell_names
        out = self.out_time
        setup = self.cell_setup
        e_alive = self.e_alive
        e_src = self.e_src
        e_delay = self.e_delay
        worst = 0.0
        worst_eid = -1
        n_paths = 0
        for dst in range(len(names)):
            if not alive[dst] or not seq[dst]:
                continue
            su = setup[dst]
            for eid in self.fan_in[dst]:
                if not e_alive[eid]:
                    continue
                s = e_src[eid]
                if s < 0:
                    continue
                n_paths += 1
                total = out[s] + e_delay[eid] + su
                if total > worst:
                    worst = total
                    worst_eid = eid
        overhead, insertion = clock_terms(self.design, self.delays)
        if worst_eid < 0:
            worst = max(
                (out[i] for i in range(len(names)) if alive[i]), default=0.0
            )
            return TimingReport(self.design.name, worst, overhead, [], 0, insertion)
        path: list[tuple[str, str | None]] = [
            (names[self.e_dst[worst_eid]], self.e_net[worst_eid])
        ]
        best = self.best_pred
        cursor = e_src[worst_eid]
        guard = 0
        while cursor >= 0 and guard < self.n_alive + 1:
            pe = best[cursor]
            path.append((names[cursor], self.e_net[pe] if pe >= 0 else None))
            cursor = e_src[pe] if pe >= 0 else -1
            guard += 1
        path.reverse()
        return TimingReport(self.design.name, worst, overhead, path, n_paths, insertion)

    # -- housekeeping --------------------------------------------------------

    def needs_rebuild(self) -> bool:
        """Dead entries dominate the arrays: cheaper to recompile."""
        n_edges = len(self.e_src)
        n_cells = len(self.cell_names)
        return (
            self.n_dead_edges > 256
            and self.n_dead_edges > 2 * (n_edges - self.n_dead_edges)
        ) or (
            n_cells - self.n_alive > 256
            and n_cells - self.n_alive > 2 * self.n_alive
        )
