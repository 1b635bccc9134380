"""Nets and ports.

A :class:`Net` connects one driver cell to one or more sink cells.  After
routing, each sink has a node path through the routing graph
(:class:`repro.fabric.RoutingGraph` node ids).  A net whose ``locked``
flag is set keeps its routing through later flow stages — the
pre-implemented flow locks all intra-component nets so the final Vivado
pass "only considers non-routed nets" (paper Sec. IV-A2).

A :class:`Port` is a component-boundary connection point.  Ports carry an
optional partition-pin tile (``tile``): the paper pre-implements modules
with PartPin constraints so the tools know which interconnect tile the
inter-module net will enter/leave through.  Ports reference the internal
net they are logically part of.
"""

from __future__ import annotations

__all__ = ["Net", "Port", "WORD_BITS"]

#: The data word, in bits: every feature-map, weight and data-port bus
#: carries one, and an accumulator two.  The paper's accelerators compute
#: in "fixed 16" (Table IV, Precision row).
WORD_BITS = 16


class Net:
    """A signal net: one driver, ``n`` sinks, optional routed paths.

    Attributes
    ----------
    name:
        Unique name within its design.
    driver:
        Driving cell name (or ``None`` for nets driven by a top input port).
    sinks:
        Sink cell names, order-stable.
    routes:
        Per-sink routed paths: ``routes[i]`` is a list of routing-graph node
        ids for ``sinks[i]`` or ``None`` when that sink is unrouted.
    width:
        Bus width in bits; weights congestion and stitch cost.
    is_clock:
        Clock nets are routed on the dedicated clock network, not by the
        general router, and are excluded from data-path STA.
    locked:
        Routing locked (pre-implemented component internals).
    """

    __slots__ = ("name", "driver", "sinks", "routes", "width", "is_clock", "locked")

    def __init__(
        self,
        name: str,
        driver: str | None,
        sinks: list[str] | None = None,
        *,
        width: int = 1,
        is_clock: bool = False,
        locked: bool = False,
    ) -> None:
        if width < 1:
            raise ValueError(f"net {name}: width must be >= 1")
        self.name = name
        self.driver = driver
        self.sinks: list[str] = list(sinks or [])
        self.routes: list[list[int] | None] = [None] * len(self.sinks)
        self.width = width
        self.is_clock = is_clock
        self.locked = locked

    def add_sink(self, cell_name: str) -> None:
        self.sinks.append(cell_name)
        self.routes.append(None)

    def lengths(self) -> tuple[int, int]:
        """``(len(sinks), len(routes))``: what :meth:`truncate` cuts back to."""
        return len(self.sinks), len(self.routes)

    def truncate(self, lengths: tuple[int, int]) -> None:
        """Drop the sinks and routes added since :meth:`lengths` said *lengths*."""
        n_sinks, n_routes = lengths
        del self.sinks[n_sinks:]
        del self.routes[n_routes:]

    def sinks_outside(self, blocks: tuple) -> list[str]:
        """The sinks that are not cells of one of the placed *blocks* by
        construction — for a net like this one, all of them."""
        return self.sinks

    @property
    def n_pins(self) -> int:
        return (1 if self.driver else 0) + len(self.sinks)

    @property
    def is_routed(self) -> bool:
        return bool(self.sinks) and all(r is not None for r in self.routes)

    def clear_routes(self) -> None:
        if self.locked:
            raise PermissionError(f"net {self.name} is locked; refusing to rip up")
        self.routes = [None] * len(self.sinks)

    def clone(self, name: str | None = None, rename=None) -> "Net":
        """Copy, optionally renaming endpoint cells via *rename* callable.

        A slot-for-slot copy (fresh sink and route lists), not validated
        a second time.
        """
        out = Net.__new__(Net)
        out.name = name or self.name
        if rename is None:
            out.driver = self.driver or None
            out.sinks = list(self.sinks)
        else:
            out.driver = rename(self.driver) if self.driver else None
            out.sinks = list(map(rename, self.sinks))
        out.routes = [list(r) if r is not None else None for r in self.routes]
        out.width = self.width
        out.is_clock = self.is_clock
        out.locked = self.locked
        return out

    def __repr__(self) -> str:
        state = "routed" if self.is_routed else "unrouted"
        return f"<Net {self.name} {self.driver}->{len(self.sinks)} sinks {state}>"


class Port:
    """Component boundary port.

    Attributes
    ----------
    name:
        Port name, unique within the design.
    direction:
        ``"in"`` or ``"out"``.
    net:
        Name of the internal net attached to this port.  For an input
        port, the internal net's sinks receive the external signal; for an
        output port, the internal net's driver produces it.
    width:
        Bus width in bits.
    tile:
        Partition-pin tile ``(col, row)`` or ``None`` when port planning was
        skipped (the ablation benchmark toggles this).
    protocol:
        Interface protocol: ``"stream"`` (FIFO handshake) or ``"mem"``
        (memory-controller interface, paper Fig. 5).
    """

    __slots__ = ("name", "direction", "net", "width", "tile", "protocol")

    def __init__(
        self,
        name: str,
        direction: str,
        net: str,
        *,
        width: int = 1,
        tile: tuple[int, int] | None = None,
        protocol: str = "stream",
    ) -> None:
        if direction not in ("in", "out"):
            raise ValueError(f"port {name}: direction must be 'in' or 'out'")
        if protocol not in ("stream", "mem"):
            raise ValueError(f"port {name}: protocol must be 'stream' or 'mem'")
        self.name = name
        self.direction = direction
        self.net = net
        self.width = width
        self.tile = tile
        self.protocol = protocol

    def clone(self, rename=None) -> "Port":
        rename = rename or (lambda n: n)
        return Port(
            self.name,
            self.direction,
            rename(self.net),
            width=self.width,
            tile=self.tile,
            protocol=self.protocol,
        )

    def __repr__(self) -> str:
        pin = f"@{self.tile}" if self.tile else "unpinned"
        return f"<Port {self.name} {self.direction} w{self.width} {pin}>"
