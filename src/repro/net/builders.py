"""Wire topologies into runnable packet-simulator networks.

Each builder produces a :class:`SimNetwork`: hosts with NICs and pull
pacers, switches with routers, and flow-starting helpers. The four networks
of the paper's evaluation are supported:

* :class:`OperaSimNetwork` — time-varying rotor circuits, slice-stamped
  expander routing for low-latency traffic, RotorLB for bulk;
* :class:`ExpanderSimNetwork` — static random-regular fabric, NDP sprayed
  over equal-cost shortest paths;
* :class:`ClosSimNetwork` — three-tier folded Clos, per-packet ECMP;
* :class:`RotorNetSimNetwork` — lockstep rotors with RotorLB; optionally
  *hybrid* with a separate packet fabric for low-latency traffic.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.forwarding import ForwardingPipeline, TrafficClass
from ..core.schedule import slice_activations
from ..core.timing import PS_PER_US
from ..core.topology import OperaNetwork
from ..topologies.expander import ExpanderTopology
from ..topologies.folded_clos import FoldedClos
from ..topologies.rotornet import RotorNetTopology
from .kernel import engine_classes
from .link import CircuitTable, Port
from .ndp import PullPacer, start_ndp_flow
from .node import CONSUMED, ForwardingTable, Host, SwitchNode, table_route
from .packet import Packet, PacketKind, Priority, release
from .rotorlb import BulkFlow, BulkSink, RotorLBAgent
from .sim import Simulator
from .stats import FlowRecord, StatsCollector

__all__ = [
    "SimNetwork",
    "OperaSimNetwork",
    "ExpanderSimNetwork",
    "ClosSimNetwork",
    "RotorNetSimNetwork",
]

DEFAULT_RATE = 10_000_000_000
DEFAULT_PROP_PS = 500_000  # 500 ns =~ 100 m of fiber


class SimNetwork:
    """Common harness state: engine, hosts, stats, flow helpers.

    The engine classes (``Simulator``/``Port``/``Host``/``SwitchNode``)
    are resolved through the kernel seam at construction time
    (``REPRO_KERNEL``, see :mod:`repro.net.kernel`), the same way the
    scheduler and coalescing policies resolve per instance — so a
    network built under ``REPRO_KERNEL=c`` runs the compiled hot path
    while the pure-Python oracle stays one env var away.
    """

    def __init__(self, rate_bps: int = DEFAULT_RATE, prop_ps: int = DEFAULT_PROP_PS):
        self.kernel = engine_classes()
        self.sim = self.kernel.Simulator()
        self.stats = StatsCollector()
        self.rate_bps = rate_bps
        self.prop_ps = prop_ps
        self.hosts: list[Host] = []
        self.pacers: dict[int, PullPacer] = {}
        self._flow_id = 0

    # ------------------------------------------------------------- plumbing

    def _make_hosts(self, n_hosts: int, hosts_per_rack: int) -> None:
        for h in range(n_hosts):
            host = self.kernel.Host(self.sim, h, h // hosts_per_rack)
            self.hosts.append(host)
            self.pacers[h] = self.kernel.PullPacer(self.sim, host, self.rate_bps)

    def _wire_host(self, host: Host, tor: SwitchNode, **port_kwargs) -> None:
        host.nic = self.kernel.Port(
            self.sim,
            f"host{host.host_id}->tor{host.rack}",
            target=tor,
            rate_bps=self.rate_bps,
            propagation_ps=self.prop_ps,
            **port_kwargs,
        )

    def _host_port(self, tor_name: str, host: Host) -> Port:
        return self.kernel.Port(
            self.sim,
            f"{tor_name}->host{host.host_id}",
            target=host,
            rate_bps=self.rate_bps,
            propagation_ps=self.prop_ps,
        )

    def next_flow_id(self) -> int:
        self._flow_id += 1
        return self._flow_id

    # ----------------------------------------------------------------- flows

    def start_low_latency_flow(
        self, src: int, dst: int, size_bytes: int, start_ps: int = 0
    ) -> FlowRecord:
        record = FlowRecord(
            flow_id=self.next_flow_id(),
            src_host=src,
            dst_host=dst,
            size_bytes=size_bytes,
            traffic_class=TrafficClass.LOW_LATENCY.value,
            start_ps=start_ps,
        )
        start_ndp_flow(
            self.sim,
            self.hosts[src],
            self.hosts[dst],
            record,
            self.pacers[dst],
            self.stats,
            priority=Priority.LOW_LATENCY,
            start_delay_ps=max(0, start_ps - self.sim.now),
            source_cls=self.kernel.NdpSource,
            sink_cls=self.kernel.NdpSink,
        )
        return record

    def start_bulk_flow(
        self, src: int, dst: int, size_bytes: int, start_ps: int = 0
    ) -> FlowRecord:
        """Default: bulk rides NDP too (static networks have no circuits)."""
        record = FlowRecord(
            flow_id=self.next_flow_id(),
            src_host=src,
            dst_host=dst,
            size_bytes=size_bytes,
            traffic_class=TrafficClass.BULK.value,
            start_ps=start_ps,
        )
        start_ndp_flow(
            self.sim,
            self.hosts[src],
            self.hosts[dst],
            record,
            self.pacers[dst],
            self.stats,
            priority=Priority.LOW_LATENCY,
            start_delay_ps=max(0, start_ps - self.sim.now),
            source_cls=self.kernel.NdpSource,
            sink_cls=self.kernel.NdpSink,
        )
        return record

    def run(self, until_ps: int) -> None:
        self.sim.run(until_ps=until_ps)


# ---------------------------------------------------------------------------
# Opera
# ---------------------------------------------------------------------------


class OperaSimNetwork(SimNetwork):
    """Packet-level Opera: stamped expander routing + RotorLB circuits."""

    def __init__(
        self,
        network: OperaNetwork,
        rate_bps: int = DEFAULT_RATE,
        prop_ps: int = DEFAULT_PROP_PS,
        enable_vlb: bool = True,
    ) -> None:
        super().__init__(rate_bps, prop_ps)
        self.network = network
        self.pipeline = ForwardingPipeline.for_schedule(network.schedule)
        sched = network.schedule
        timing = network.timing
        self.slice_ps = timing.slice_ps
        self._cycle_slices = sched.cycle_slices
        #: Failure seam. ``_fault_cell`` is a one-slot box the install-once
        #: route closures and the forwarding tables capture: ``[None]``
        #: fault-free, rebound to the live
        #: :class:`~repro.net.failures.FaultContext` by
        #: :meth:`install_failures` (state mutates; closures never do).
        self._fault_cell: list = [None]
        #: Every router's lazily filled forwarding table and reachability
        #: memo, so detection epochs can invalidate stale routes in one pass.
        self._hop_caches: list = []
        self.faults = None  # FailureInjector | None
        self._make_hosts(network.n_hosts, network.hosts_per_rack)

        self.tors: list[SwitchNode] = []
        self.host_ports: dict[int, Port] = {}
        self.uplink_ports: list[dict[int, Port]] = []
        self.agents: list[RotorLBAgent] = []

        slice_payload = (timing.slice_ps * rate_bps) // (8 * 1_000_000_000_000)
        slice_payload = int(slice_payload * timing.duty_cycle)
        host_budget = (timing.slice_ps * rate_bps) // (8 * 1_000_000_000_000)

        for rack in range(network.n_racks):
            tor = self.kernel.SwitchNode(self.sim, f"tor{rack}")
            self.tors.append(tor)
        for rack in range(network.n_racks):
            tor = self.tors[rack]
            for host_id in network.rack_hosts(rack):
                host = self.hosts[host_id]
                self._wire_host(host, tor)
                self.host_ports[host_id] = self._host_port(tor.name, host)
            uplinks: dict[int, Port] = {}
            for w in range(network.n_switches):
                uplinks[w] = self.kernel.Port(
                    self.sim,
                    f"tor{rack}-up{w}",
                    resolver=self._circuit_table(rack, w).resolve,
                    rate_bps=rate_bps,
                    propagation_ps=prop_ps,
                    on_undeliverable=self._make_dark_handler(rack),
                    on_bulk_drop=self._make_dark_handler(rack),
                )
            self.uplink_ports.append(uplinks)
            activations = slice_activations(sched, rack, network.n_switches)
            agent = RotorLBAgent(
                self.sim,
                rack,
                rack_of=lambda host, _d=network.hosts_per_rack: host // _d,
                uplinks=uplinks,
                slice_payload_bytes=slice_payload,
                host_budget_bytes=host_budget,
                enable_vlb=enable_vlb,
                hosts=list(network.rack_hosts(rack)),
                active_by_slice=[
                    [(w, uplinks[w], peer) for (w, peer) in row]
                    for row in activations
                ],
            )
            self.agents.append(agent)
            self._install_router(tor, rack, agent)
        for agent in self.agents:
            agent.peers = {r: self.agents[r] for r in range(network.n_racks)}
        self._schedule_slices()

    # ------------------------------------------------------------ time base

    def current_slice(self, now_ps: int | None = None) -> int:
        now = self.sim.now if now_ps is None else now_ps
        return (now // self.slice_ps) % self._cycle_slices

    def _circuit_table(self, rack: int, switch: int) -> CircuitTable:
        # Per-slice peers and dark windows are pure functions of the
        # schedule: the circuit is dark from epsilon into a slice in which
        # its switch reconfigures, and lit all slice otherwise.
        sched = self.network.schedule
        slice_ps = self.slice_ps
        epsilon_ps = self.network.timing.epsilon_ps
        peer = []
        dark_from = []
        for s in range(sched.cycle_slices):
            p = sched.matching_of(switch, s)[rack]
            peer.append(None if p == rack else self.tors[p])
            dark_from.append(epsilon_ps if sched.is_down(switch, s) else slice_ps)
        return CircuitTable(slice_ps, tuple(peer), tuple(dark_from))

    def _faulty_resolver(self, rack: int, switch: int, ctx):
        # Failure-armed variant (swapped in by install_failures; ports read
        # ``resolver`` per packet in both kernels, so the swap is live).
        # The *actual* failure sets are captured as locals — the injector
        # mutates them in place — and a packet launched into a physically
        # dead circuit lands in this rack's blackhole: light simply stops
        # arriving, with none of the queue-drop recovery paths firing.
        sched = self.network.schedule
        cycle = sched.cycle_slices
        peer_rack = [sched.matching_of(switch, s)[rack] for s in range(cycle)]
        resolve = self._circuit_table(rack, switch).resolve
        slice_ps = self.slice_ps
        links_down = ctx.links_down
        racks_down = ctx.racks_down
        switches_down = ctx.switches_down
        blackhole = ctx.blackholes[rack]

        def resolve_faulty(packet: Packet, now_ps: int):
            peer = resolve(packet, now_ps)
            if peer is None:
                return None
            if ctx.any_down:
                pr = peer_rack[(now_ps // slice_ps) % cycle]
                if (
                    switch in switches_down
                    or rack in racks_down
                    or pr in racks_down
                    or (rack, switch) in links_down
                    or (pr, switch) in links_down
                ):
                    return blackhole
            return peer

        return resolve_faulty

    def _make_dark_handler(self, rack: int):
        def handle(packet: Packet) -> None:
            if packet.priority is Priority.BULK and packet.kind is PacketKind.DATA:
                self.agents[rack].requeue(packet)
            elif packet.kind in (PacketKind.DATA, PacketKind.HEADER):
                # Low-latency packet caught by a reconfiguration: re-route
                # from this rack with a fresh stamp.
                packet.slice_stamp = None
                packet.hops += 1
                self.tors[rack].receive(packet)
            else:
                # Control packets caught mid-reconfiguration are simply
                # lost; NDP recovers via its pull clock.
                release(packet)

        return handle

    def _install_router(self, tor: SwitchNode, rack: int, agent: RotorLBAgent) -> None:
        routing = self.pipeline.routing
        uplinks = self.uplink_ports[rack]
        hosts_per_rack = self.network.hosts_per_rack
        slice_ps = self.slice_ps
        sim = self.sim
        # Failure seam: routers are install-once (ports cache the fused
        # dispatch closure), so dynamic failure state is read through this
        # one-slot box — [None] until install_failures arms it. While it
        # is armed, both kernels run this Python closure for every packet.
        fault_cell = self._fault_cell

        def next_hops(stamp: int, dst_rack: int) -> tuple[Port, ...]:
            ctx = fault_cell[0]
            tables = routing if ctx is None else ctx.routing
            options = tables.routes(stamp).next_hops(rack, dst_rack)
            return tuple(uplinks[switch] for _peer, switch in options)

        # Rows fill lazily per (stamp, dst_rack); registered with the
        # network so detection epochs clear them and the next miss
        # repopulates from the epoch's detected-failure routing.
        tor.table = ForwardingTable(
            [None] * self._cycle_slices,
            hosts_per_rack,
            rack=rack,
            host_ports=self.host_ports,
            relay=agent.accept_relay,
            slice_ps=slice_ps,
            next_hops=next_hops,
            n_racks=self.network.n_racks,
            fault_cell=fault_cell,
        )
        self._hop_caches.append(tor.table)
        # dst_rack -> any-slice reachability under the epoch's detected
        # routing; cleared together with the table at detection epochs.
        reach_cache: dict[int, bool] = {}
        self._hop_caches.append(reach_cache)

        def route(switch: SwitchNode, packet: Packet):
            ctx = fault_cell[0]
            if ctx is None:
                return table_route(switch, packet)
            if rack in ctx.racks_down:
                # This ToR is physically dead: everything it would have
                # switched — host-bound deliveries included — is lost.
                ctx.blackholes[rack].receive(packet)
                return CONSUMED
            port = table_route(switch, packet)
            if port is not None or not (ctx.any_down or ctx.detected is not None):
                return port
            if ctx.detected is not None:
                dst_rack = packet.dst_host // hosts_per_rack
                reachable = reach_cache.get(dst_rack)
                if reachable is None:
                    reachable = reach_cache[dst_rack] = (
                        ctx.routing.any_slice_reachable(rack, dst_rack)
                    )
                if reachable:
                    # The *updated* tables know this slice has no
                    # surviving path but a later one does: hold the packet
                    # at the ToR until the next slice boundary and re-route
                    # it there (hops unchanged — it waited in place).
                    # Bounded: within one cycle some slice offers a path.
                    ctx.slice_parks += 1
                    packet.slice_stamp = None
                    sim.at((sim.now // slice_ps + 1) * slice_ps, switch.receive, packet)
                    return CONSUMED
            # Routeless because of failures with no surviving path in any
            # slice (or not yet detected): the packet is failure-lost. Feed
            # the blackhole so the recovery clock retries — its
            # phase-shifted timeout lands the retransmission in a
            # different slice, which may well have a path.
            ctx.blackholes[rack].receive(packet)
            return CONSUMED

        tor.router = route

    # -------------------------------------------------------------- RotorLB

    def _schedule_slices(self) -> None:
        # One reconfiguration event per (cycle, slice): a single
        # preconstructed callback rotates every rack's matchings through
        # the agents' precomputed activation tables — no per-port timers,
        # no per-slice allocations.
        agents = self.agents
        slice_ps = self.slice_ps
        cycle = self._cycle_slices
        sim = self.sim

        def on_slice_boundary() -> None:
            s = (sim.now // slice_ps) % cycle
            for agent in agents:
                agent.on_slice(s)
            sim.after(slice_ps, on_slice_boundary)

        sim.at(0, on_slice_boundary)

    # -------------------------------------------------------------- failures

    def install_failures(
        self,
        schedule,
        *,
        rtx_timeout_ps: int | None = None,
        bulk_retry_ps: int | None = None,
        detection_cap_cycles: int = 2,
    ):
        """Arm a :class:`~repro.core.faults.FailureSchedule` on this network.

        Must run before the first ``run()`` (routers are install-once and
        the injector replays hello-protocol detection delays from t=0).
        Swaps every uplink resolver (a :class:`CircuitTable` the compiled
        kernel reads directly) for its failure-aware Python variant and
        arms the route closures through ``_fault_cell``, which also
        stops the compiled kernel serving hops from the forwarding
        tables; with an empty schedule
        the armed network is bitwise identical to an unarmed one (priced
        as ``faults_overhead`` in the engine microbench).

        ``rtx_timeout_ps`` is the NDP blackhole-timeout clock period; it
        defaults to one rotor cycle *plus one slice*: the cycle part
        upper-bounds any legitimate in-fabric delay (the clock never
        fires on a merely-slow packet), and the extra slice shifts each
        successive retry to a different slice phase — under failures some
        slices may have no surviving path to a destination, so a
        whole-cycle timeout would re-lose every retry in the same dead
        phase. ``bulk_retry_ps`` is the parked-bulk retry period
        (default one cycle: every direct circuit has rotated past by
        then).

        Returns the :class:`~repro.net.failures.FailureInjector`.
        """
        from .failures import FailureInjector, FaultContext

        if self.faults is not None:
            raise RuntimeError("failure schedule already installed")
        if self.sim.now != 0 or self.sim.events_processed != 0:
            raise RuntimeError(
                "install_failures must run on a pristine network: ports "
                "cache dispatch closures on first delivery, so arming "
                "mid-run would leave stale fault-free paths in place"
            )
        schedule.validate(self.network.n_racks, self.network.n_switches)
        cycle_ps = self._cycle_slices * self.slice_ps
        ctx = FaultContext(self.pipeline.routing)
        injector = FailureInjector(
            self,
            ctx,
            schedule,
            rtx_timeout_ps=(
                cycle_ps + self.slice_ps
                if rtx_timeout_ps is None
                else rtx_timeout_ps
            ),
            bulk_retry_ps=cycle_ps if bulk_retry_ps is None else bulk_retry_ps,
            detection_cap_cycles=detection_cap_cycles,
        )
        for rack, uplinks in enumerate(self.uplink_ports):
            for switch, port in uplinks.items():
                port.resolver = self._faulty_resolver(rack, switch, ctx)
        self._fault_cell[0] = ctx
        self.faults = injector
        return injector

    def start_bulk_flow(
        self, src: int, dst: int, size_bytes: int, start_ps: int = 0
    ) -> FlowRecord:
        record = FlowRecord(
            flow_id=self.next_flow_id(),
            src_host=src,
            dst_host=dst,
            size_bytes=size_bytes,
            traffic_class=TrafficClass.BULK.value,
            start_ps=start_ps,
        )
        self.stats.flow_started(record)
        BulkSink(self.sim, self.hosts[dst], record, self.stats)
        flow = BulkFlow(record)
        agent = self.agents[self.network.host_rack(src)]
        self.sim.at(max(start_ps, self.sim.now), lambda: agent.submit(flow))
        return record

# ---------------------------------------------------------------------------
# Static expander
# ---------------------------------------------------------------------------


class ExpanderSimNetwork(SimNetwork):
    """Static expander fabric: NDP over equal-cost shortest paths."""

    def __init__(
        self,
        topology: ExpanderTopology,
        rate_bps: int = DEFAULT_RATE,
        prop_ps: int = DEFAULT_PROP_PS,
    ) -> None:
        super().__init__(rate_bps, prop_ps)
        self.topology = topology
        self._make_hosts(topology.n_hosts, topology.hosts_per_rack)
        self.tors = [
            self.kernel.SwitchNode(self.sim, f"tor{r}") for r in range(topology.n_racks)
        ]
        self.host_ports: dict[int, Port] = {}
        self.uplink_ports: list[dict[int, Port]] = []
        for rack, tor in enumerate(self.tors):
            for host_id in range(
                rack * topology.hosts_per_rack, (rack + 1) * topology.hosts_per_rack
            ):
                host = self.hosts[host_id]
                self._wire_host(host, tor)
                self.host_ports[host_id] = self._host_port(tor.name, host)
            ports: dict[int, Port] = {}
            for peer, matching_idx in topology.adjacency[rack]:
                ports[matching_idx] = self.kernel.Port(
                    self.sim,
                    f"tor{rack}-m{matching_idx}",
                    target=self.tors[peer],
                    rate_bps=rate_bps,
                    propagation_ps=prop_ps,
                )
            self.uplink_ports.append(ports)
            tor.table = ForwardingTable(
                [None],
                topology.hosts_per_rack,
                rack=rack,
                host_ports=self.host_ports,
                next_hops=self._next_hops(rack, ports),
                n_racks=topology.n_racks,
            )
            tor.router = table_route

    def _next_hops(self, rack: int, ports: dict[int, Port]):
        # The static expander's equal-cost option lists never change; the
        # table memoizes them per destination rack on first use.
        routes = self.topology.routes

        def next_hops(_stamp: int, dst_rack: int) -> tuple[Port, ...]:
            return tuple(ports[m] for _peer, m in routes.next_hops(rack, dst_rack))

        return next_hops


# ---------------------------------------------------------------------------
# Folded Clos
# ---------------------------------------------------------------------------


class ClosSimNetwork(SimNetwork):
    """Three-tier folded Clos with per-packet ECMP spraying."""

    def __init__(
        self,
        clos: FoldedClos,
        rate_bps: int = DEFAULT_RATE,
        prop_ps: int = DEFAULT_PROP_PS,
    ) -> None:
        super().__init__(rate_bps, prop_ps)
        self.clos = clos
        self._make_hosts(clos.n_hosts, clos.hosts_per_rack)
        self.tors = [
            self.kernel.SwitchNode(self.sim, f"tor{r}") for r in range(clos.n_racks)
        ]
        self.aggs = [
            self.kernel.SwitchNode(self.sim, f"agg{a}") for a in range(clos.n_aggs)
        ]
        self.cores = [
            self.kernel.SwitchNode(self.sim, f"core{c}") for c in range(clos.n_cores)
        ]
        self.host_ports: dict[int, Port] = {}

        def port_to(name: str, node: SwitchNode) -> Port:
            return self.kernel.Port(
                self.sim,
                name,
                target=node,
                rate_bps=rate_bps,
                propagation_ps=prop_ps,
            )

        self.tor_up: list[dict[int, Port]] = []
        self.agg_down: list[dict[int, Port]] = []
        self.agg_up: list[dict[int, Port]] = []
        self.core_down: list[dict[int, Port]] = []

        for rack, tor in enumerate(self.tors):
            for host_id in range(
                rack * clos.hosts_per_rack, (rack + 1) * clos.hosts_per_rack
            ):
                host = self.hosts[host_id]
                self._wire_host(host, tor)
                self.host_ports[host_id] = self._host_port(tor.name, host)
            self.tor_up.append(
                {
                    agg: port_to(f"tor{rack}->agg{agg}", self.aggs[agg])
                    for agg in clos.tor_agg_links(rack)
                }
            )
        for agg_id in range(clos.n_aggs):
            pod = agg_id // clos.aggs_per_pod
            self.agg_down.append(
                {
                    rack: port_to(f"agg{agg_id}->tor{rack}", self.tors[rack])
                    for rack in range(
                        pod * clos.tors_per_pod, (pod + 1) * clos.tors_per_pod
                    )
                }
            )
            self.agg_up.append(
                {
                    core: port_to(f"agg{agg_id}->core{core}", self.cores[core])
                    for core in clos.agg_core_links(agg_id)
                }
            )
        for core_id in range(clos.n_cores):
            self.core_down.append(
                {
                    agg: port_to(f"core{core_id}->agg{agg}", self.aggs[agg])
                    for agg in clos.core_agg_links(core_id)
                }
            )
        self._install_tables()

    def _install_tables(self) -> None:
        # Per-packet ECMP: a ToR sprays over its aggs and an agg over its
        # cores toward foreign pods (one hop each); an agg goes straight
        # down within its pod, and a core down to the destination pod's
        # agg in its own group.
        clos = self.clos
        tpp = clos.tors_per_pod
        racks = range(clos.n_racks)

        def install(switch: SwitchNode, row: list, **kwargs) -> None:
            switch.table = ForwardingTable([row], clos.hosts_per_rack, **kwargs)
            switch.router = table_route

        for rack, tor in enumerate(self.tors):
            up = (tuple(self.tor_up[rack][agg] for agg in clos.tor_agg_links(rack)), 1)
            row = [None if r == rack else up for r in racks]
            install(tor, row, rack=rack, host_ports=self.host_ports)
        for agg_id, agg in enumerate(self.aggs):
            pod = agg_id // clos.aggs_per_pod
            down = self.agg_down[agg_id]
            up = (tuple(self.agg_up[agg_id][c] for c in clos.agg_core_links(agg_id)), 1)
            install(agg, [((down[r],), 0) if r // tpp == pod else up for r in racks])
        for core_id, core in enumerate(self.cores):
            group = core_id // clos.cores_per_group
            down = self.core_down[core_id]
            install(
                core,
                [((down[(r // tpp) * clos.aggs_per_pod + group],), 1) for r in racks],
            )


# ---------------------------------------------------------------------------
# RotorNet
# ---------------------------------------------------------------------------


class RotorNetSimNetwork(SimNetwork):
    """Lockstep RotorNet with RotorLB; optional hybrid packet fabric."""

    def __init__(
        self,
        topology: RotorNetTopology,
        rate_bps: int = DEFAULT_RATE,
        prop_ps: int = DEFAULT_PROP_PS,
        slice_ps: int = 100 * PS_PER_US,
        reconfiguration_ps: int = 10 * PS_PER_US,
    ) -> None:
        super().__init__(rate_bps, prop_ps)
        self.topology = topology
        self.slice_ps = slice_ps
        self.reconfiguration_ps = reconfiguration_ps
        sched = topology.schedule
        self._make_hosts(topology.n_hosts, topology.hosts_per_rack)
        self.tors = [
            self.kernel.SwitchNode(self.sim, f"tor{r}") for r in range(topology.n_racks)
        ]
        self.host_ports: dict[int, Port] = {}
        self.uplink_ports: list[dict[int, Port]] = []
        self.agents: list[RotorLBAgent] = []
        self.fabric: SwitchNode | None = None
        self.fabric_up: list[Port] = []
        self.fabric_down: list[Port] = []

        usable = slice_ps - reconfiguration_ps
        slice_payload = (usable * rate_bps) // (8 * 1_000_000_000_000)
        host_budget = (slice_ps * rate_bps) // (8 * 1_000_000_000_000)

        if topology.hybrid:
            self.fabric = self.kernel.SwitchNode(self.sim, "pkt-fabric")

        for rack, tor in enumerate(self.tors):
            for host_id in range(
                rack * topology.hosts_per_rack,
                (rack + 1) * topology.hosts_per_rack,
            ):
                host = self.hosts[host_id]
                self._wire_host(host, tor)
                self.host_ports[host_id] = self._host_port(tor.name, host)
            ports: dict[int, Port] = {}
            for w in range(topology.n_rotor_switches):
                ports[w] = self.kernel.Port(
                    self.sim,
                    f"tor{rack}-rotor{w}",
                    resolver=self._circuit_table(rack, w).resolve,
                    rate_bps=rate_bps,
                    propagation_ps=prop_ps,
                    on_undeliverable=self._make_requeue(rack),
                    on_bulk_drop=self._make_requeue(rack),
                )
            self.uplink_ports.append(ports)
            if topology.hybrid:
                assert self.fabric is not None
                self.fabric_up.append(
                    self.kernel.Port(
                        self.sim,
                        f"tor{rack}->fabric",
                        target=self.fabric,
                        rate_bps=rate_bps,
                        propagation_ps=prop_ps,
                    )
                )
                self.fabric_down.append(
                    self.kernel.Port(
                        self.sim,
                        f"fabric->tor{rack}",
                        target=self.tors[rack],
                        rate_bps=rate_bps,
                        propagation_ps=prop_ps,
                    )
                )
            activations = slice_activations(sched, rack, topology.n_rotor_switches)
            agent = RotorLBAgent(
                self.sim,
                rack,
                rack_of=topology.host_rack,
                uplinks=ports,
                slice_payload_bytes=slice_payload,
                host_budget_bytes=host_budget,
                hosts=list(
                    range(
                        rack * topology.hosts_per_rack,
                        (rack + 1) * topology.hosts_per_rack,
                    )
                ),
                active_by_slice=[
                    [(w, ports[w], peer) for (w, peer) in row]
                    for row in activations
                ],
            )
            self.agents.append(agent)
        self._install_tables()
        for agent in self.agents:
            agent.peers = {r: self.agents[r] for r in range(topology.n_racks)}
        self._schedule_slices()

    def current_slice(self, now_ps: int | None = None) -> int:
        now = self.sim.now if now_ps is None else now_ps
        return (now // self.slice_ps) % self.topology.schedule.cycle_slices

    def _circuit_table(self, rack: int, switch: int) -> CircuitTable:
        # All rotors reconfigure in unison at each boundary: the fabric is
        # dark for the final r of every slice.
        sched = self.topology.schedule
        peer = []
        for s in range(sched.cycle_slices):
            p = sched.matching_of(switch, s)[rack]
            peer.append(None if p == rack else self.tors[p])
        usable_ps = self.slice_ps - self.reconfiguration_ps
        return CircuitTable(self.slice_ps, tuple(peer), (usable_ps,) * len(peer))

    def _make_requeue(self, rack: int):
        def handle(packet: Packet) -> None:
            if packet.kind is PacketKind.DATA:
                self.agents[rack].requeue(packet)
            else:
                release(packet)

        return handle

    def _install_tables(self) -> None:
        # A ToR sends a foreign rack's bulk DATA to its RotorLB agent as
        # relay traffic. Other traffic for a foreign rack takes the packet
        # fabric when the network is hybrid; non-hybrid RotorNet has no
        # low-latency service, so it has no entry and is dropped: control
        # and "low-latency" data alike must wait in RotorLB queues, which
        # is exactly the paper's point (Figure 7c), and are treated as
        # bulk at the flow level.
        topology = self.topology
        racks = range(topology.n_racks)
        for rack, tor in enumerate(self.tors):
            up = (self.fabric_up[rack],) if topology.hybrid else None
            tor.table = ForwardingTable(
                [[None if up is None or r == rack else (up, 1) for r in racks]],
                topology.hosts_per_rack,
                rack=rack,
                host_ports=self.host_ports,
                relay=self.agents[rack].accept_relay,
            )
            tor.router = table_route
        if self.fabric is not None:
            self.fabric.table = ForwardingTable(
                [[((port,), 0) for port in self.fabric_down]], topology.hosts_per_rack
            )
            self.fabric.router = table_route

    def _schedule_slices(self) -> None:
        # Lockstep rotors: one reconfiguration event per slice rotates
        # every rack through its precomputed activation row (see the
        # Opera builder for the batching rationale).
        agents = self.agents
        slice_ps = self.slice_ps
        cycle = self.topology.schedule.cycle_slices
        sim = self.sim

        def on_slice_boundary() -> None:
            s = (sim.now // slice_ps) % cycle
            for agent in agents:
                agent.on_slice(s)
            sim.after(slice_ps, on_slice_boundary)

        sim.at(0, on_slice_boundary)

    def start_bulk_flow(
        self, src: int, dst: int, size_bytes: int, start_ps: int = 0
    ) -> FlowRecord:
        record = FlowRecord(
            flow_id=self.next_flow_id(),
            src_host=src,
            dst_host=dst,
            size_bytes=size_bytes,
            traffic_class=TrafficClass.BULK.value,
            start_ps=start_ps,
        )
        self.stats.flow_started(record)
        BulkSink(self.sim, self.hosts[dst], record, self.stats)
        flow = BulkFlow(record)
        agent = self.agents[self.topology.host_rack(src)]
        self.sim.at(max(start_ps, self.sim.now), lambda: agent.submit(flow))
        return record

    def start_low_latency_flow(
        self, src: int, dst: int, size_bytes: int, start_ps: int = 0
    ) -> FlowRecord:
        if self.topology.hybrid:
            return super().start_low_latency_flow(src, dst, size_bytes, start_ps)
        # Non-hybrid: low-latency flows ride the rotor fabric as bulk.
        return self.start_bulk_flow(src, dst, size_bytes, start_ps)
