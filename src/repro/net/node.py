"""Hosts and switches for the packet simulator."""

from __future__ import annotations

from typing import Callable, Protocol

from .link import Port
from .packet import Packet, PacketKind, Priority, release
from .sim import Simulator

__all__ = [
    "Host",
    "SwitchNode",
    "ForwardingTable",
    "table_route",
    "Blackhole",
    "FlowEndpoint",
    "MAX_HOPS",
    "CONSUMED",
]

#: TTL guard: a packet bouncing more ToR hops than this is dropped.
MAX_HOPS = 32

#: Sentinel a router returns when it absorbed the packet itself (e.g. a
#: RotorLB agent queueing a relay packet) rather than forwarding it.
CONSUMED = object()

_DATA = PacketKind.DATA
_HEADER = PacketKind.HEADER
_BULK = Priority.BULK


class FlowEndpoint(Protocol):
    """Transport endpoints attached to hosts implement this.

    ``on_packet`` must not retain (or re-send) the packet object after it
    returns: the host recycles delivered packets through the free list in
    :mod:`repro.net.packet`.
    """

    def on_packet(self, packet: Packet) -> None: ...


class Host:
    """An end host: one NIC port toward its ToR plus transport endpoints."""

    __slots__ = (
        "sim",
        "host_id",
        "rack",
        "nic",
        "sources",
        "sinks",
        "dropped",
        "receive_cb",
    )

    def __init__(self, sim: Simulator, host_id: int, rack: int) -> None:
        self.sim = sim
        self.host_id = host_id
        self.rack = rack
        self.nic: Port | None = None  # wired by the builder
        #: flow_id -> sender endpoint (receives ACK/NACK/PULL).
        self.sources: dict[int, FlowEndpoint] = {}
        #: flow_id -> receiver endpoint (receives DATA/HEADER).
        self.sinks: dict[int, FlowEndpoint] = {}
        self.dropped = 0
        #: ``self.receive`` bound once: ports schedule deliveries with this
        #: so the hot path never re-creates the bound method per packet.
        self.receive_cb = self.receive

    def send(self, packet: Packet) -> bool:
        assert self.nic is not None, "host NIC not wired"
        return self.nic.enqueue(packet)

    def receive(self, packet: Packet) -> None:
        kind = packet.kind
        if kind is _DATA or kind is _HEADER:
            endpoint = self.sinks.get(packet.flow_id)
        else:
            endpoint = self.sources.get(packet.flow_id)
        if endpoint is None:
            self.dropped += 1
        else:
            endpoint.on_packet(packet)
        # Packets die at hosts: recycle them for the next allocation.
        release(packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Host({self.host_id}, rack={self.rack})"


class ForwardingTable:
    """One switch's forwarding state, as data both engine kernels read.

    ``rows[stamp][dst_rack]`` is an entry ``(ports, increment)``: the
    switch sends the packet out of ``ports[(salt + hops) % len(ports)]``
    and adds ``increment`` to ``packet.hops``. On a stamped fabric
    (``slice_ps > 0``, Opera) there is one row per slice of the cycle and
    ``stamp`` is the packet's slice stamp; every other fabric has a
    single row. A packet for this switch's own ``rack`` goes to
    ``host_ports[dst_host]``, and a bulk DATA packet for a foreign rack
    goes to ``relay`` (a RotorLB agent's ``accept_relay``) when one is
    set.

    Tables with ``next_hops`` fill lazily: a ``None`` row (``n_racks``
    entries once built) or entry is computed on first use from
    ``next_hops(stamp, dst_rack)`` (the egress ports toward ``dst_rack``)
    and stored with increment 1, and :meth:`clear` drops them all when the
    routing changes. Without ``next_hops`` every entry is built up front
    and ``None`` means no route. ``fault_cell`` is the owning network's
    one-slot failure box: while it holds a context, the compiled kernel
    leaves every packet to the Python route.
    """

    __slots__ = (
        "rows",
        "n_racks",
        "hosts_per_rack",
        "rack",
        "host_ports",
        "relay",
        "slice_ps",
        "next_hops",
        "fault_cell",
    )

    def __init__(
        self,
        rows: list,
        hosts_per_rack: int,
        *,
        rack: int = -1,
        host_ports: dict[int, Port] | None = None,
        relay: Callable[[Packet], None] | None = None,
        slice_ps: int = 0,
        next_hops: Callable[[int, int], tuple] | None = None,
        n_racks: int = 0,
        fault_cell: list | None = None,
    ) -> None:
        self.rows = rows
        self.n_racks = n_racks
        self.hosts_per_rack = hosts_per_rack
        self.rack = rack
        self.host_ports = host_ports
        self.relay = relay
        self.slice_ps = slice_ps
        self.next_hops = next_hops
        self.fault_cell = fault_cell

    def entry(self, stamp: int, dst_rack: int) -> tuple | None:
        row = self.rows[stamp]
        entry = None if row is None else row[dst_rack]
        if entry is None and self.next_hops is not None:
            entry = (self.next_hops(stamp, dst_rack), 1)
            if row is None:
                row = self.rows[stamp] = [None] * self.n_racks
            row[dst_rack] = entry
        return entry

    def clear(self) -> None:
        """Drop every lazily filled row (the routing epoch changed)."""
        self.rows[:] = [None] * len(self.rows)


def table_route(switch: "SwitchNode", packet: Packet):
    """The route every switch runs: one lookup in ``switch.table``.

    This is the pure-Python reading of :class:`ForwardingTable`; the
    compiled dispatch serves the same lookups itself and calls this
    function only for what it leaves to Python (a missing or empty entry,
    or anything off its fast path).
    """
    table = switch.table
    dst_host = packet.dst_host
    dst_rack = dst_host // table.hosts_per_rack
    if dst_rack == table.rack:
        return table.host_ports[dst_host]
    relay = table.relay
    if relay is not None and packet.priority is _BULK and packet.kind is _DATA:
        # Bulk landing on a foreign rack: absorb as relay traffic (a
        # missed slice or an intentional VLB first hop).
        packet.hops += 1
        relay(packet)
        return CONSUMED
    slice_ps = table.slice_ps
    if slice_ps:
        stamp = packet.slice_stamp
        if stamp is None:
            stamp = packet.slice_stamp = (switch.sim.now // slice_ps) % len(table.rows)
        entry = table.entry(stamp, dst_rack)
        if entry is None or not entry[0]:
            # Stale stamp (e.g. a rerouted packet): retry on the current slice.
            stamp = packet.slice_stamp = (switch.sim.now // slice_ps) % len(table.rows)
            entry = table.entry(stamp, dst_rack)
    else:
        entry = table.entry(0, dst_rack)
    if entry is None or not entry[0]:
        return None
    ports, increment = entry
    port = ports[(packet.salt + packet.hops) % len(ports)]
    packet.hops += increment
    return port


class SwitchNode:
    """A packet switch: routing is a pluggable callback.

    ``router(switch, packet)`` returns the egress :class:`Port`, or ``None``
    to drop (the drop is counted; transports recover via NDP trimming or
    RotorLB requeueing upstream). The network builders install
    :func:`table_route` (or a closure around it) and put the switch's
    :class:`ForwardingTable` in ``table``, which the compiled kernel reads
    directly.
    """

    __slots__ = ("sim", "name", "_router", "drops", "receive_cb", "table")

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._router: Callable[["SwitchNode", Packet], Port | None] | None = None
        self.drops = 0
        self.table: ForwardingTable | None = None
        #: Prebound ``self.receive`` for zero-allocation delivery events;
        #: replaced by a fused dispatch closure when a router is installed.
        self.receive_cb = self.receive

    @property
    def router(self) -> Callable[["SwitchNode", Packet], Port | None] | None:
        return self._router

    @router.setter
    def router(self, route: Callable[["SwitchNode", Packet], Port | None]) -> None:
        # Installing a router also builds the fused delivery closure the
        # ports actually dispatch: the TTL guard, routing call and egress
        # enqueue in one flat function, with the router and switch bound
        # as locals — no attribute walk or assert per delivered packet.
        # ``receive`` keeps delegating to the same closure, so re-entrant
        # callers (e.g. reconfiguration handlers re-routing a caught
        # packet) observe identical semantics. Install-once: ports cache
        # the closure on first delivery (link.py's lazy ``_deliver``
        # bind), so swapping routers mid-run would leave already-used
        # ports routing through the stale closure — build a new network
        # to rewire instead. Anything that must *change* mid-run (live
        # failure state, routing epochs) therefore lives in mutable state
        # the installed closure consults per packet, never in a new
        # closure (see repro.net.failures; while a failure schedule is
        # armed the compiled kernel calls the same Python route closure,
        # which is what keeps the kernels bit-identical under dynamic
        # failures).
        if self._router is not None:
            raise RuntimeError(
                f"{self.name}: router already installed; ports may have "
                "cached its dispatch closure — routers are install-once"
            )
        self._router = route
        switch = self

        def dispatch(packet: Packet, _route=route, _switch=switch) -> None:
            if packet.hops > MAX_HOPS:
                _switch.drops += 1
                release(packet)
                return
            port = _route(_switch, packet)
            if port is CONSUMED:
                return
            if port is None:
                _switch.drops += 1
                release(packet)
                return
            port.enqueue(packet)

        self.receive_cb = dispatch

    def receive(self, packet: Packet) -> None:
        receive_cb = self.receive_cb
        assert self._router is not None, f"{self.name}: no router installed"
        receive_cb(packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SwitchNode({self.name})"


class Blackhole:
    """A receive-only pseudo-node that absorbs every packet handed to it.

    Failed components resolve to one of these: a packet "delivered" into a
    blackhole is physically lost (the sender's resolver picked a dead fiber
    at wire-entry time, exactly like a dark-slice miss), and ``on_packet``
    decides its fate — count it, park it for ToR-granularity bulk
    retransmission, or feed the NDP timeout clock
    (:mod:`repro.net.failures`). Delivery dispatch is the same prebound
    ``receive_cb`` contract every node honours, so both engine kernels
    hand packets over identically.
    """

    __slots__ = ("sim", "name", "on_packet", "absorbed", "receive_cb")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        on_packet: Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.name = name
        self.on_packet = on_packet
        self.absorbed = 0
        self.receive_cb = self.receive

    def receive(self, packet: Packet) -> None:
        self.absorbed += 1
        self.on_packet(packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Blackhole({self.name})"
