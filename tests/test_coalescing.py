"""Differential tests for bursts of same-time and closely spaced events.

Packet engines schedule bursts: a port drains its control queue as a run
of back-to-back transmissions, and a callback often schedules several
follow-ups at one timestamp. Each event is one heap entry, ordered by
``(time, seq)``. These tests pin that burst-heavy cascades dispatch
identically under both engine kernels — timestamps, tie-break order,
clock trajectory, ``events_processed`` and ``pending`` — through horizon
cuts and event budgets, and that every heap insertion is accounted for
at every chunk boundary (``sched_entries == events + pending``).
"""

import random

import pytest

from repro.net.kernel import KERNELS, compiled_available, engine_classes

pytestmark = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel (_ckernel) not built in this environment",
)

#: The engine combinations compared; the kernel is the only axis.
COMBOS = KERNELS

CHUNKS = (
    dict(until_ps=100_000_000, max_events=500),
    dict(until_ps=2_000_000_000),
    dict(max_events=50),
    dict(max_events=3_000),
    dict(),
)


def burst_cascade(kernel: str, seed: int, snapshots=None):
    """Seeded self-scheduling storm in which every callback fires a burst.

    Mixes same-timestamp entries (tie-producing), sub-serialisation
    delays, and far-future delays, and drains in chunks with event
    budgets so bursts get cut and resumed. Returns every observable.
    """
    sim = engine_classes(kernel).Simulator()
    rng = random.Random(seed)
    trace = []

    def fire(tag):
        trace.append((sim.now, tag))
        # Subcritical branching (mean < 1) so every cascade dies out.
        k = rng.choices((0, 1, 2, 3), weights=(5, 3, 2, 1))[0]
        for i in range(k):
            delay = rng.choice(
                (
                    0,
                    rng.randrange(1, 80_000),
                    rng.randrange(1, 2_000_000),
                    rng.randrange(1, 5_000_000_000),
                )
            )
            sim.at(sim.now + delay, fire, f"{tag}.{i}")

    for i in range(40):
        sim.at(rng.randrange(0, 50_000_000), fire, str(i))
    for chunk in CHUNKS:
        sim.run(**chunk)
        if snapshots is not None:
            counters = sim.counters()
            snapshots.append(
                (sim.now, counters["events"], counters["pending"], counters["sched_entries"])
            )
    return tuple(trace), sim.now, sim.events_processed, sim.pending


class TestDifferentialCascades:
    @pytest.mark.parametrize("seed", range(15))
    def test_all_combos_trace_identically(self, seed):
        baseline = burst_cascade(COMBOS[0], seed)
        assert baseline[2] > 40  # the cascade did more than its seeds
        for kernel in COMBOS[1:]:
            assert burst_cascade(kernel, seed) == baseline, kernel

    @pytest.mark.parametrize("seed", range(10))
    def test_pending_and_events_processed_agree_at_every_chunk(self, seed):
        # A budget may expire inside a burst; the accounting observables
        # must still agree between kernels at every chunk boundary, and
        # every insertion is either dispatched or still pending.
        snaps = {}
        for kernel in COMBOS:
            snapshots = []
            burst_cascade(kernel, seed, snapshots)
            snaps[kernel] = snapshots
            for _now, events, pending, entries in snapshots:
                assert entries == events + pending, kernel
        baseline = snaps[COMBOS[0]]
        for kernel, snapshots in snaps.items():
            assert snapshots == baseline, kernel


class TestPacketWorkloadDifferential:
    def test_opera_bit_identical_across_all_combos(self, packet_workload, monkeypatch):
        # Opera's NDP control bursts (PULLs, NACKs, trimmed headers) are the
        # packet-level source of same-time runs.
        runs = {}
        for kernel in COMBOS:
            monkeypatch.setenv("REPRO_KERNEL", kernel)
            runs[kernel] = packet_workload(kind="opera", seed=5)
        baseline = runs[COMBOS[0]]
        assert baseline["events"] > 10_000
        for kernel, run in runs.items():
            assert run == baseline, kernel
