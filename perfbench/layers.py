"""Per-layer timing measured from outside the program.

Nothing under ``src/`` is instrumented. While a traced pass runs, a
:class:`Patches` set replaces public entry points of each layer with
wrappers that time every call. Each wrapper pushes a frame on a
per-thread stack, so a layer's *self* time is its span minus the time its
wrapped children took, and the self times of every layer nested under
``Runner.run`` add up to that call's wall time exactly.

Hot callbacks (route closures, ``StatsCollector.delivered``, RotorLB)
run millions of times per pass, so every layer keeps only running totals
(calls, total, self). Coarse layers (a Runner call, a network build, a
simulator run) also keep one span record each, written out when the
benchmark ends. A wrapper's own cost falls outside its timed span, into
its caller's self time: for the hot callbacks that caller is ``net.run``,
whose self time (the C loop) is inflated by about what
``trace.overhead_ratio`` shows.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator

_perf = time.perf_counter

#: Layers whose every call is also kept as a span record
#: ``(id, name, start, end, parent id)``; the rest only keep totals.
SPAN_LAYERS = frozenset(
    {
        "scenarios.runner",
        "experiments.unit",
        "net.build",
        "core.schedule_build",
        "net.run",
        "fluid.run",
        "fluid.static",
        "analysis.throughput",
        "distrib.submit",
        "distrib.stream",
    }
)


class Recorder:
    """Per-thread span stacks plus per-layer ``[calls, total_s, self_s]``.

    Each thread gets its own stack and totals (two service clients run
    concurrently), merged by :meth:`totals`.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[dict[str, Any]] = []
        self.counts: dict[str, int] = {}

    def _state(self) -> dict[str, Any]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "totals": {}, "spans": []}
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as one call of layer ``name``."""
        keep = name in SPAN_LAYERS
        rec = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = rec._state()
            stack = state["stack"]
            parent = stack[-1] if stack else None
            frame = [0.0, len(state["spans"]) if keep else None]
            if keep:
                state["spans"].append(None)
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                dur = end - start
                stack.pop()
                tot = state["totals"].get(name)
                if tot is None:
                    tot = state["totals"][name] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if keep:
                    state["spans"][frame[1]] = (
                        frame[1],
                        name,
                        start,
                        end,
                        parent[1] if parent is not None else None,
                    )

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def wrap_iter(
        self, name: str, fn: Callable[..., Iterator[Any]]
    ) -> Callable[..., Iterator[Any]]:
        """A generator function whose every ``next`` is timed as ``name``
        and whose items are counted under the same name."""
        rec = self

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            it = fn(*args, **kwargs)
            step = rec.wrap(name, lambda: next(it, _END))
            n = 0
            try:
                while True:
                    item = step()
                    if item is _END:
                        return
                    n += 1
                    yield item
            finally:
                rec.count(name, n)

        return wrapper

    def totals(self) -> dict[str, list[float]]:
        """``name -> [calls, total_s, self_s]`` summed over threads."""
        out: dict[str, list[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in state["totals"].items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return out

    def spans(self) -> list[tuple[Any, ...]]:
        with self._lock:
            states = list(self._states)
        return [s for state in states for s in state["spans"] if s is not None]


_END = object()


class Patches:
    """Install wrappers on module/class attributes; restore them on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, rec: Recorder, name: str, owner: Any, attr: str) -> None:
        self.set(owner, attr, rec.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def install(rec: Recorder, patches: Patches) -> None:
    """Wrap every layer entry point the four workloads reach.

    Class methods are patched before any network is built. Route closures
    are install-once (a port caches its switch's dispatch closure), so
    they are wrapped as they are installed: the compiled ``SwitchNode``'s
    ``router`` setter is patched to wrap the closure it is handed.
    """
    from repro.core import schedule as core_schedule
    from repro.distrib.jobs import ServiceClient
    from repro.experiments import fctsim, fig08_shuffle
    from repro.fluid import RotorFluidSimulation
    from repro.net import builders
    from repro.net.kernel import engine_classes
    from repro.net.rotorlb import BulkSink, RotorLBAgent
    from repro.net.stats import StatsCollector
    from repro.obs.metrics import iter_ports
    from repro.scenarios import registry, runner
    from repro.scenarios.cache import ResultCache
    from repro.topologies import rotornet
    from repro.workloads.arrivals import PoissonArrivals

    w = patches.wrap
    w(rec, "scenarios.runner", runner.Runner, "run")
    w(rec, "experiments.unit", registry.Scenario, "execute")
    w(rec, "experiments.unit", registry.Scenario, "run_cell")
    for name in ("to_jsonable", "to_portable", "from_portable",
                 "canonical_json", "content_hash"):
        w(rec, "scenarios.encode", runner, name)
    w(rec, "scenarios.cache_put", ResultCache, "put")
    w(rec, "scenarios.cache_put", ResultCache, "put_cell")

    w(rec, "net.build", fctsim, "build_network")
    w(rec, "core.schedule_build", core_schedule.OperaSchedule, "__init__")
    w(rec, "core.schedule_build", rotornet.RotorNetSchedule, "__init__")
    w(rec, "core.factorization", core_schedule, "lifted_random_factorization")
    w(rec, "core.factorization", rotornet, "lifted_random_factorization")
    patches.set(
        PoissonArrivals, "flows", rec.wrap_iter("workloads.flows", PoissonArrivals.flows)
    )
    for cls in (builders.SimNetwork, builders.OperaSimNetwork,
                builders.RotorNetSimNetwork):
        for name in ("start_low_latency_flow", "start_bulk_flow"):
            if name in cls.__dict__:
                w(rec, "net.inject", cls, name)
    w(rec, "net.rotorlb.on_slice", RotorLBAgent, "on_slice")
    for name in ("submit", "accept_relay", "requeue"):
        w(rec, "net.rotorlb.packet", RotorLBAgent, name)
    w(rec, "net.rotorlb.packet", BulkSink, "on_packet")
    w(rec, "net.stats.delivered", StatsCollector, "delivered")

    switch_cls = engine_classes("c").SwitchNode
    prop = switch_cls.__dict__["router"]
    patches.set(
        switch_cls,
        "router",
        property(prop.fget, lambda sw, route: prop.fset(sw, rec.wrap("net.route", route))),
    )

    run = rec.wrap("net.run", builders.SimNetwork.run)

    def run_and_count(net: Any, until_ps: int) -> None:
        run(net, until_ps)
        # Post-run counter reads, outside the timed span: the same slots
        # the telemetry drain reads.
        counters = net.sim.counters()
        ports = list(iter_ports(net))
        rec.count("net.events", counters["events"])
        rec.count("net.sched_entries", counters["sched_entries"])
        rec.count("net.packet_hops", sum(p.stats.sent_packets for p in ports))
        rec.count(
            "net.drops",
            sum(p.stats.dropped_control + p.stats.dropped_bulk for p in ports),
        )
        bulk = [f for f in net.stats.flows.values() if f.traffic_class == "bulk"]
        rec.count("net.flows_bulk", len(bulk))
        rec.count("net.flows_lowlat", len(net.stats.flows) - len(bulk))
        rec.count("net.bulk_bytes", sum(f.size_bytes for f in bulk))
        rec.count("net.flow_bytes", sum(f.size_bytes for f in net.stats.flows.values()))

    patches.set(builders.SimNetwork, "run", run_and_count)

    fluid_run = rec.wrap("fluid.run", RotorFluidSimulation.run)

    def fluid_run_and_count(sim: Any, *args: Any, **kwargs: Any) -> Any:
        result = fluid_run(sim, *args, **kwargs)
        rec.count("fluid.slices", result.slices_run)
        return result

    patches.set(RotorFluidSimulation, "run", fluid_run_and_count)
    w(rec, "fluid.static", fig08_shuffle, "static_shuffle_run")
    w(rec, "analysis.throughput", fig08_shuffle, "expander_throughput")
    w(rec, "analysis.throughput", fig08_shuffle, "clos_throughput")

    w(rec, "distrib.submit", ServiceClient, "submit")
    patches.set(
        ServiceClient,
        "stream_results",
        rec.wrap_iter("distrib.stream", ServiceClient.stream_results),
    )
