"""Slice-granularity fluid simulation of rotor networks (Figs 8 and 10).

The packet simulator is exact but cannot push 648 hosts x hundreds of
milliseconds in Python; this fluid model runs the same RotorLB logic at
rack-pair byte granularity, one topology slice at a time:

1. every up circuit (a—b) carries relay bytes for its far end first, then
   local bytes, up to the slice's byte budget;
2. leftover budget carries two-hop VLB traffic: local backlog for other
   racks moves to the connected peer's relay queues (subject to headroom);
3. optional low-latency background traffic (Figure 10's Websearch share)
   consumes a fixed fraction of every circuit's budget, scaled by the
   multi-hop bandwidth tax.

Flow completion times fall out of per-rack-pair backlog draining: the
paper's shuffle starts all flows at once and RotorLB round-robins packets
across a pair's flows, so a pair's flows complete when its backlog drains.

Bit identity. The model is defined one circuit at a time, in (up switch,
rack) order, and every float a run reports is the one that sequential
definition gives, bit for bit; tests pin full results by hash.

Cost per slice. A matching is an involution, so within one switch each
rack sends on one circuit and receives on one. The direct sends of a
switch's circuits therefore cannot see each other and run as array
operations over its circuits. Only circuits left with budget and a
backlogged sender take VLB moves, in scalar Python, each an argmax over
one rack's backlog row. Completion detection is one mask operation over
the rack pairs, and the circuits of one schedule cycle are built once
per run. A slice costs a few array operations per up switch, O(n^2)
element work inside numpy, and the VLB moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.schedule import OperaSchedule
from ..core.timing import PS_PER_S, TimingParams
from ..topologies.rotornet import RotorNetSchedule

__all__ = ["FluidResult", "RotorFluidSimulation"]


@dataclass
class FluidResult:
    """Outcome of a fluid run."""

    #: (time_ms, fraction of aggregate host bandwidth delivered) per slice.
    throughput_series: list[tuple[float, float]]
    #: rack pair -> completion time (ms); None if unfinished at the horizon.
    pair_completion_ms: dict[tuple[int, int], float | None]
    delivered_bytes: float
    offered_bytes: float
    slices_run: int

    def completion_percentile_ms(self, percentile: float) -> float | None:
        """Pair completion time at ``percentile``, ranked over all pairs.

        Unfinished pairs rank last (as +inf), so the result is None when
        the rank lands on one, or when there are no pairs at all.
        """
        times = sorted(
            math.inf if v is None else v for v in self.pair_completion_ms.values()
        )
        if not times:
            return None
        idx = min(len(times) - 1, max(0, int(np.ceil(percentile / 100 * len(times))) - 1))
        return None if times[idx] == math.inf else times[idx]

    @property
    def all_complete(self) -> bool:
        return all(v is not None for v in self.pair_completion_ms.values())


class RotorFluidSimulation:
    """Fluid RotorLB over an Opera or RotorNet schedule.

    Parameters
    ----------
    schedule:
        :class:`OperaSchedule` (offset reconfigurations; down switches skip
        a slice) or :class:`RotorNetSchedule` (lockstep; all up).
    timing:
        Supplies slice duration and duty cycle.
    link_rate_bps, hosts_per_rack:
        Shape (throughput normalization).
    background_ll_load:
        Low-latency load per host (fraction of NIC) forwarded multi-hop
        over the same fabric; its bandwidth tax reduces circuit budgets.
    avg_path_length:
        Bandwidth tax multiplier for the background traffic.
    """

    def __init__(
        self,
        schedule: OperaSchedule | RotorNetSchedule,
        timing: TimingParams,
        link_rate_bps: int = 10_000_000_000,
        hosts_per_rack: int = 6,
        background_ll_load: float = 0.0,
        avg_path_length: float = 3.3,
        relay_cap_bytes: float = 50e6,
        enable_vlb: bool = True,
    ) -> None:
        self.schedule = schedule
        self.timing = timing
        self.link_rate_bps = link_rate_bps
        self.hosts_per_rack = hosts_per_rack
        self.n = schedule.n_racks
        self.enable_vlb = enable_vlb
        self.relay_cap_bytes = relay_cap_bytes
        self.local = np.zeros((self.n, self.n))
        self.relay = np.zeros((self.n, self.n))
        self._offered = 0.0
        slice_seconds = timing.slice_ps / PS_PER_S
        budget = slice_seconds * link_rate_bps / 8 * timing.duty_cycle
        # Background low-latency traffic steals (load * d * tax / up-links)
        # of each circuit in expectation.
        uplinks = getattr(schedule, "n_switches", 1)
        up_per_slice = (
            len(schedule.up_switches(0))
            if isinstance(schedule, OperaSchedule)
            else uplinks
        )
        ll_bytes_per_rack = (
            background_ll_load
            * hosts_per_rack
            * avg_path_length
            * slice_seconds
            * link_rate_bps
            / 8
        )
        self._ll_share = min(1.0, ll_bytes_per_rack / max(budget * up_per_slice, 1e-9))
        self.slice_budget = budget * (1.0 - self._ll_share)

    # ---------------------------------------------------------------- load

    def add_demand(self, matrix_bytes: np.ndarray) -> None:
        """Add rack-pair backlog (bytes); diagonal must be zero."""
        if matrix_bytes.shape != (self.n, self.n):
            raise ValueError("demand matrix shape mismatch")
        if not np.all(np.isfinite(matrix_bytes)):
            raise ValueError("demand matrix has a NaN or infinite entry")
        if np.any(matrix_bytes < 0):
            raise ValueError("demand matrix has a negative entry")
        if np.any(np.diag(matrix_bytes) != 0):
            raise ValueError("rack-local demand never enters the fabric")
        self.local += matrix_bytes
        self._offered += float(matrix_bytes.sum())

    def add_all_to_all(self, bytes_per_host_pair: int) -> None:
        """The paper's shuffle: every host to every non-local host."""
        d = self.hosts_per_rack
        per_rack_pair = bytes_per_host_pair * d * d
        matrix = np.full((self.n, self.n), float(per_rack_pair))
        np.fill_diagonal(matrix, 0.0)
        self.add_demand(matrix)

    # ---------------------------------------------------------------- run

    def _circuit_table(self) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        """Circuits ``src -> dst`` of every slice in one cycle, per up switch.

        Slice ``s`` runs entry ``s % cycle_slices``: its up switches in
        order, each with its live circuits in rack order. That order is
        part of the result. Slices that show the same matching share its
        arrays, so the table holds one pair per matching.
        """
        sched = self.schedule
        racks = np.arange(self.n)
        arrays: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        table = []
        for s in range(sched.cycle_slices):
            if isinstance(sched, OperaSchedule):
                switches = sched.up_switches(s)
            else:
                switches = range(sched.n_switches)
            circuits = []
            for w in switches:
                matching = sched.matching_of(w, s)
                if matching not in arrays:
                    peer = np.asarray(matching)
                    src = np.flatnonzero(peer != racks)
                    arrays[matching] = (src, peer[src])
                circuits.append(arrays[matching])
            table.append(circuits)
        return table

    def _ship_vlb(
        self,
        a: int,
        b: int,
        left: float,
        headroom: float,
        nic_out: np.ndarray,
        vlb_out: np.ndarray,
    ) -> None:
        """Move rack ``a``'s most backlogged other-destination bytes to b.

        ``left`` is the circuit's unused budget and ``headroom`` the room
        in b's relay queues. The moved bytes wait in b's relay queue for a
        circuit to their destination.
        """
        row = self.local[a]
        relay_b = self.relay[b]
        out = nic_out[a]
        while left > 1.0 and headroom > 1.0 and out > 1.0:
            # Zeroing b's entry for the argmax (then restoring it) keeps
            # numpy's first-index tie-break without copying the row.
            kept = row[b]
            row[b] = 0.0
            x = int(row.argmax())
            most = row[x]
            row[b] = kept
            if most <= 0:
                break
            move = min(left, most, headroom, out)
            row[x] -= move
            relay_b[x] += move
            vlb_out[a, x] += move
            out -= move
            left -= move
            headroom -= move
        nic_out[a] = out

    def run(self, max_slices: int = 10_000) -> FluidResult:
        if max_slices < 1:
            raise ValueError(f"max_slices must be at least 1, got {max_slices}")
        n = self.n
        local = self.local
        relay = self.relay
        budget = self.slice_budget
        vlb = self.enable_vlb
        relay_cap = self.relay_cap_bytes
        slice_ms = self.timing.slice_ps / 1e9
        series: list[tuple[float, float]] = []
        # Bytes of each (src, dst) pair riding relay queues somewhere. The
        # relay matrix forgets origins, so deliveries are attributed back
        # proportionally — exact for completion purposes because a pair is
        # done only when its outstanding total hits zero.
        vlb_out = np.zeros_like(local)
        # Keys follow a set's iteration order; that order is part of the
        # result, so the dict is built from the same set as always.
        completion: dict[tuple[int, int], float | None] = {
            p: None
            for p in {
                (a, b) for a in range(n) for b in range(n) if local[a][b] > 0
            }
        }
        pending = local > 0
        n_pending = len(completion)
        aggregate_bytes_per_slice = (
            n
            * self.hosts_per_rack
            * self.link_rate_bps
            / 8
            * (self.timing.slice_ps / PS_PER_S)
        )
        # Host NICs bound what a rack can source (first hops: direct sends
        # and VLB moves) and sink (final deliveries) each slice. Relay
        # forwarding is ToR-buffer-to-ToR-buffer and does not touch NICs.
        nic_bytes = (
            self.hosts_per_rack
            * self.link_rate_bps
            / 8
            * (self.timing.slice_ps / PS_PER_S)
        )
        table = self._circuit_table()
        cycle = len(table)
        delivered_total = 0.0
        s = 0
        for s in range(max_slices):
            delivered = 0.0
            relay_delivered_to = np.zeros(n)
            nic_out = np.full(n, nic_bytes)
            nic_in = np.full(n, nic_bytes)
            if vlb:
                # Backlog only drains within a slice: a rack with none now
                # has nothing to ship by VLB all slice.
                busy = (local > 0).any(axis=1)
                relay_before = np.zeros(n)
            for src, dst in table[s % cycle]:
                # Each circuit carries relay bytes for its far end, then
                # local bytes, up to the slice budget. One switch's circuits
                # touch disjoint senders and receivers, so these direct
                # sends run as array operations over the switch.
                first = relay[src, dst]
                room = nic_in[dst]
                relayed = np.minimum(np.minimum(budget, first), room)
                room -= relayed
                cap = budget - relayed
                backlog = local[src, dst]
                out = nic_out[src]
                direct = np.minimum(np.minimum(cap, backlog), np.minimum(out, room))
                cap -= direct
                relay[src, dst] = first - relayed
                local[src, dst] = backlog - direct
                nic_in[dst] = room - direct
                nic_out[src] = out - direct
                relay_delivered_to[dst] += relayed
                # Add up in circuit order, as one circuit at a time would.
                moved = np.array((relayed, direct)).T.ravel()
                for take in moved[moved > 0].tolist():
                    delivered += take
                if not vlb:
                    continue
                # VLB on the circuits with budget left. A move a -> b -> x
                # never has x == a, so no direct send above read what it
                # writes. Circuit order matters only for b's relay sum: a
                # circuit a -> b ahead of b -> a (a < b) must see the relay
                # bytes b -> a as they were before b -> a sent them.
                relay_before[src] = first
                spare = np.flatnonzero((cap > 1.0) & busy[src])
                for a, b, left in zip(
                    src[spare].tolist(), dst[spare].tolist(), cap[spare].tolist()
                ):
                    if a < b:
                        sent = relay[b, a]
                        relay[b, a] = relay_before[b]
                        held = relay[b].sum()
                        relay[b, a] = sent
                    else:
                        held = relay[b].sum()
                    self._ship_vlb(a, b, left, relay_cap - held, nic_out, vlb_out)
            # Attribute relay deliveries back to origin pairs (pro rata).
            for b in np.flatnonzero(relay_delivered_to > 0).tolist():
                column = vlb_out[:, b]
                total = column.sum()
                if total > 0:
                    column *= max(0.0, 1.0 - relay_delivered_to[b] / total)
            delivered_total += delivered
            series.append(((s + 1) * slice_ms, delivered / aggregate_bytes_per_slice))
            if n_pending:
                done = pending & (local <= 1e-6) & (vlb_out <= 1e-6)
                if done.any():
                    rows, cols = np.nonzero(done)
                    finish_ms = (s + 1) * slice_ms
                    for p in zip(rows.tolist(), cols.tolist()):
                        completion[p] = finish_ms
                    pending &= ~done
                    n_pending -= len(rows)
            if (
                not n_pending
                and local.sum() <= 1e-6
                and relay.sum() <= 1e-6
            ):
                break
        return FluidResult(
            throughput_series=series,
            pair_completion_ms=completion,
            delivered_bytes=delivered_total,
            offered_bytes=self._offered,
            slices_run=s + 1,
        )
