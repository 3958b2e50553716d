"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.experiments.fctsim import MS, build_network
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.distributions import DATAMINING


def _packet_workload(kind: str = "opera", seed: int = 11) -> dict:
    """A small mixed fig07-style run; returns the full observable state.

    The engine kernel comes from ``REPRO_KERNEL`` as the network is built.
    """
    net = build_network(kind, k=8, n_racks=8, seed=seed)
    arrivals = PoissonArrivals(
        DATAMINING.truncated(500_000),
        load=0.15,
        n_hosts=len(net.hosts),
        hosts_per_rack=4,
        seed=seed,
    )
    threshold = getattr(
        getattr(net, "network", None), "bulk_threshold_bytes", 1 << 62
    )
    for flow in arrivals.flows(duration_ps=int(1.0 * MS)):
        if flow.size_bytes >= threshold:
            net.start_bulk_flow(
                flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
            )
        else:
            net.start_low_latency_flow(
                flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
            )
    net.run(until_ps=int(5.0 * MS))
    ports = {}
    for host in net.hosts:
        ports[f"nic{host.host_id}"] = host.nic
    ports.update({f"down{h}": p for h, p in getattr(net, "host_ports", {}).items()})
    for i, group in enumerate(getattr(net, "uplink_ports", [])):
        ports.update({f"up{i}.{w}": p for w, p in group.items()})
    return {
        "events": net.sim.events_processed,
        "final_now": net.sim.now,
        "pending": net.sim.pending,
        "fcts": [
            (fid, rec.fct_ps, rec.delivered_bytes, rec.retransmissions)
            for fid, rec in sorted(net.stats.flows.items())
        ],
        "port_stats": {
            name: (
                p.stats.sent_packets,
                p.stats.sent_bytes,
                p.stats.trimmed,
                p.stats.dropped_control,
                p.stats.dropped_bulk,
                p.stats.undeliverable,
            )
            for name, p in ports.items()
        },
        "drops": [tor.drops for tor in getattr(net, "tors", [])],
    }


@pytest.fixture
def packet_workload():
    """The small mixed fig07-style run, as a callable."""
    return _packet_workload
