"""Forwarding tables: fault-free hops are data both kernels read.

Every switch carries a :class:`~repro.net.node.ForwardingTable` and every
rotor circuit port a :class:`~repro.net.link.CircuitTable`. The
pure-Python engine reads them through :func:`~repro.net.node.table_route`
and ``CircuitTable.resolve``; the compiled kernel reads the same objects
in C and calls the Python route only for what the tables leave open (an
armed failure cell, a missing or empty entry, anything off its fast
path). These tests pin that the compiled kernel really does serve almost
every fault-free hop itself, that a packet it leaves to Python ends
exactly as under the pure-Python engine, and the ``router`` property
contract per-layer timing relies on.
"""

import pytest

from repro.experiments.fctsim import build_network, run_fct_cell
from repro.net.kernel import compiled_available, engine_classes
from repro.net.node import ForwardingTable
from repro.net.packet import PacketKind, Priority, acquire

requires_c = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel (_ckernel) not built in this environment",
)


def count_route_calls(monkeypatch, kernel):
    """Wrap every route the ``kernel``'s switches get in a counter.

    Patches the ``router`` property of that kernel's switch class the way
    per-layer timing does; returns the one-slot call counter.
    """
    cls = engine_classes(kernel).SwitchNode
    prop = cls.__dict__["router"]
    calls = [0]

    def counted(route):
        def route_counted(switch, packet):
            calls[0] += 1
            return route(switch, packet)

        return route_counted

    monkeypatch.setattr(
        cls, "router", property(prop.fget, lambda sw, route: prop.fset(sw, counted(route)))
    )
    return calls


@requires_c
@pytest.mark.parametrize(
    "network, distribution",
    [("opera", "datamining"), ("expander", "websearch"), ("clos", "websearch")],
)
def test_compiled_kernel_serves_fault_free_hops_from_tables(
    monkeypatch, network, distribution
):
    # Under py the route runs once per switch dispatch, so its call count
    # is the dispatch count; the c run of the same cell (bit-identical)
    # may reach Python for under 5% of them — first misses of lazily
    # filled entries and stale stamps.
    cell = dict(
        network=network,
        load=0.25,
        distribution=distribution,
        duration_ms=4.0,
        seed=0,
        scale="ci",
    )
    results, calls = {}, {}
    for kernel in ("py", "c"):
        with monkeypatch.context() as m:
            m.setenv("REPRO_KERNEL", kernel)
            counter = count_route_calls(m, kernel)
            results[kernel] = run_fct_cell(**cell)
            calls[kernel] = counter[0]
    assert results["c"] == results["py"]
    assert calls["py"] > 1_000  # real traffic: the ratio is not vacuous
    assert calls["c"] < 0.05 * calls["py"], calls


def dispatch_one(monkeypatch, kernel, prepare):
    """Hand one low-latency packet with a stale stamp to an Opera ToR.

    ``prepare(table, stamp, dst_rack)`` shapes the ToR's table first.
    Returns the packet's fate: (slice_stamp, hops, egress ports used), the
    route call count and the table row the stale stamp ends with.
    """
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    calls = count_route_calls(monkeypatch, kernel)
    net = build_network("opera", k=8, n_racks=8, seed=0)
    net.run(until_ps=5 * net.slice_ps + net.slice_ps // 3)
    tor = net.tors[0]
    stale = (net.current_slice() + 2) % net.network.schedule.cycle_slices
    dst_rack = 5
    prepare(tor.table, stale, dst_rack)
    packet = acquire(
        flow_id=1,
        kind=PacketKind.DATA,
        src_host=0,
        dst_host=dst_rack * net.network.hosts_per_rack + 1,
        seq=0,
        size_bytes=1_000,
        priority=Priority.LOW_LATENCY,
        slice_stamp=stale,
        salt=7,
    )
    before = calls[0]
    tor.receive(packet)
    used = sorted(
        port.name for port in net.uplink_ports[0].values() if port.stats.sent_packets
    )
    fate = (packet.slice_stamp, packet.hops, used)
    return fate, calls[0] - before, tor.table.rows[stale]


def empty_entry(table: ForwardingTable, stamp: int, dst_rack: int) -> None:
    """A filled row whose entry has no egress port (as a failure epoch's
    routing leaves a pair with no path in that slice)."""
    table.rows[stamp] = [None] * table.n_racks
    table.rows[stamp][dst_rack] = ((), 1)


@requires_c
def test_stale_stamp_with_empty_entry_takes_python_path_and_matches_py(monkeypatch):
    py, _, _ = dispatch_one(monkeypatch, "py", empty_entry)
    ck, calls, _ = dispatch_one(monkeypatch, "c", empty_entry)
    assert ck == py
    assert calls == 1  # the compiled dispatch left it to the Python route
    # The route re-stamped the packet on the current slice and forwarded it.
    stamp, hops, used = ck
    assert hops == 1 and len(used) == 1


@requires_c
def test_unfilled_row_takes_python_path_which_fills_it(monkeypatch):
    def untouched(table, stamp, dst_rack):
        assert table.rows[stamp] is None

    py, _, _ = dispatch_one(monkeypatch, "py", untouched)
    ck, calls, row = dispatch_one(monkeypatch, "c", untouched)
    assert ck == py
    assert calls == 1
    assert row is not None and row[5] is not None


@requires_c
def test_filled_entry_is_served_without_a_route_call(monkeypatch):
    def fill(table, stamp, dst_rack):
        table.entry(stamp, dst_rack)

    py, _, _ = dispatch_one(monkeypatch, "py", fill)
    ck, calls, _ = dispatch_one(monkeypatch, "c", fill)
    assert ck == py
    assert calls == 0
    assert ck[0] is not None and ck[1] == 1


@requires_c
def test_compiled_switch_router_stays_a_property():
    # Per-layer timing wraps routes by patching this property; with the
    # table on the switch the wrapper then counts only Python fallbacks.
    assert isinstance(engine_classes("c").SwitchNode.__dict__["router"], property)


def test_every_switch_gets_a_table():
    for kind in ("opera", "expander", "clos", "rotornet", "rotornet-hybrid"):
        net = build_network(kind, k=8, n_racks=8, seed=0)
        switches = list(net.tors)
        switches += getattr(net, "aggs", []) + getattr(net, "cores", [])
        if getattr(net, "fabric", None) is not None:
            switches.append(net.fabric)
        assert all(isinstance(sw.table, ForwardingTable) for sw in switches), kind
