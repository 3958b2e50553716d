"""Tests for the fluid simulators (Figures 8 and 10 substrate)."""

import numpy as np
import pytest

from repro.core.schedule import OperaSchedule
from repro.core.timing import PS_PER_S, TimingParams
from repro.fluid import FluidResult, RotorFluidSimulation, static_shuffle_run
from repro.scenarios import Runner
from repro.scenarios.encode import content_hash, to_portable
from repro.topologies.rotornet import RotorNetSchedule


@pytest.fixture(scope="module")
def small_setup():
    sched = OperaSchedule(24, 6, seed=0)
    timing = TimingParams(n_racks=24, n_switches=6)
    return sched, timing


def make_sim(sched, timing, **kwargs):
    return RotorFluidSimulation(sched, timing, hosts_per_rack=3, **kwargs)


def _opera24(**kwargs):
    sched = OperaSchedule(24, 6, seed=0)
    timing = TimingParams(n_racks=24, n_switches=6)
    return make_sim(sched, timing, **kwargs)


def _hot_pairs(sim, *pairs):
    demand = np.zeros((24, 24))
    for a, b in pairs:
        demand[a][b] = 30e6
    sim.add_demand(demand)
    return sim


def _fig08_reduced(seed):
    (res,) = Runner(cache=None).run(
        names=["fig08"], overrides={"k": 8, "n_racks": 16, "seed": seed}
    )
    return res.value


def _opera24_all_to_all(**kwargs):
    sim = _opera24(**kwargs)
    sim.add_all_to_all(50_000)
    return sim.run(max_slices=5000)


def _rotornet_all_to_all():
    sched = RotorNetSchedule(24, 6, seed=0)
    timing = TimingParams(n_racks=24, n_switches=6)
    sim = RotorFluidSimulation(sched, timing, hosts_per_rack=3)
    sim.add_all_to_all(50_000)
    return sim.run(max_slices=4000)


def _random_integer_demand(**kwargs):
    # Small integers make equal backlogs common, so VLB's argmax breaks
    # ties on every move.
    demand = np.random.default_rng(7).integers(0, 4, size=(24, 24)) * 250_000.0
    np.fill_diagonal(demand, 0.0)
    sim = _opera24(**kwargs)
    sim.add_demand(demand)
    return sim.run(max_slices=5000)


#: Cases whose full results (every series point, every completion time and
#: the completion map's key order) are pinned below.
PINNED_CASES = {
    "fig08_k8_seed0": lambda: _fig08_reduced(0),
    "fig08_k8_seed5": lambda: _fig08_reduced(5),
    "opera24_all_to_all": _opera24_all_to_all,
    "tight_relay_cap": lambda: _hot_pairs(
        _opera24(relay_cap_bytes=2e6), (0, 1), (2, 5)
    ).run(max_slices=8000),
    "background_ll": lambda: _opera24_all_to_all(background_ll_load=0.10),
    "hot_pair_vlb": lambda: _hot_pairs(_opera24(), (0, 1)).run(max_slices=8000),
    "hot_pair_no_vlb": lambda: _hot_pairs(
        _opera24(enable_vlb=False), (0, 1)
    ).run(max_slices=8000),
    "rotornet_all_to_all": _rotornet_all_to_all,
    "random_integer_demand": _random_integer_demand,
    # Relay traffic both ways on a circuit's racks with headroom binding:
    # a VLB move's headroom must see the reverse circuit's relay bytes as
    # they stood at its turn in circuit order.
    "random_integer_demand_tight_cap": lambda: _random_integer_demand(
        relay_cap_bytes=1e6
    ),
}

PINNED_HASHES = {
    "fig08_k8_seed0": "ff7d884c7a93f7c138c767fa0c1f033057bba26ae75382cdefee586636c29565",
    "fig08_k8_seed5": "4db56c62f539055f6293d12260933516da70f110a9339d28fdb1cc761c377334",
    "opera24_all_to_all": "08c5563ec3977b98fa7bb58b9edb9e66e4cf0f14a76449983c44a4b8c2b98e86",
    "tight_relay_cap": "8073f2f63604136c3b7277cd92a1a8f2a321cd06d451e421efbb81b106f1a2c5",
    "background_ll": "3a56dba50fafbf2ab0b2e3315fc939b44127c38c2c1c7f50793d7b82d27fc226",
    "hot_pair_vlb": "2e33029e06391fcfba10359c69e3d436d1ab040b03be6a9b096b3b954826281f",
    "hot_pair_no_vlb": "54c2aa9494647f8f33853d1432eea5e40a38a4bd1337e66a26ac9d7d5b85ded1",
    "rotornet_all_to_all": "8f2b955ceacbbca7cd582816cfc8331418b2150641fb9523931cbd33a230b2de",
    "random_integer_demand": "967a227c8de09390f08858f1208fb45ec932afe9d0d02b872988d6d4f1ddb474",
    "random_integer_demand_tight_cap": "4794ed36448437b7fe40e6b61d2d23fc494af05432315f2846905d370c5d13e7",
}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_pinned_full_result(case):
    """The fluid model's output is pinned bit for bit, not just its rows."""
    result = PINNED_CASES[case]()
    assert content_hash(to_portable(result)) == PINNED_HASHES[case]


def _reference_run(sim, max_slices):
    """The fluid model as defined: one circuit at a time, in (up switch,
    rack) order, every pending pair checked every slice."""
    n = sim.n
    local, relay = sim.local, sim.relay
    slice_ms = sim.timing.slice_ps / 1e9
    slice_s = sim.timing.slice_ps / PS_PER_S
    nic_bytes = sim.hosts_per_rack * sim.link_rate_bps / 8 * slice_s
    aggregate = n * sim.hosts_per_rack * sim.link_rate_bps / 8 * slice_s
    vlb_out = np.zeros_like(local)
    pending = {(a, b) for a in range(n) for b in range(n) if local[a][b] > 0}
    completion = {p: None for p in pending}
    series, delivered_total = [], 0.0
    for s in range(max_slices):
        delivered = 0.0
        relay_to = np.zeros(n)
        nic_out, nic_in = np.full(n, nic_bytes), np.full(n, nic_bytes)
        if isinstance(sim.schedule, OperaSchedule):
            switches = sim.schedule.up_switches(s)
        else:
            switches = range(sim.schedule.n_switches)
        circuits = [
            (a, b)
            for w in switches
            for a, b in enumerate(sim.schedule.matching_of(w, s))
            if a != b
        ]
        for a, b in circuits:
            cap = sim.slice_budget
            take = min(cap, relay[a][b], nic_in[b])
            if take > 0:
                relay[a][b] -= take
                relay_to[b] += take
                nic_in[b] -= take
                cap -= take
                delivered += take
            take = min(cap, local[a][b], nic_out[a], nic_in[b])
            if take > 0:
                local[a][b] -= take
                nic_out[a] -= take
                nic_in[b] -= take
                cap -= take
                delivered += take
            if cap <= 1.0 or not sim.enable_vlb:
                continue
            row = local[a]
            headroom = sim.relay_cap_bytes - relay[b].sum()
            while cap > 1.0 and headroom > 1.0 and nic_out[a] > 1.0:
                masked = row.copy()
                masked[b] = 0.0
                x = int(np.argmax(masked))
                if masked[x] <= 0:
                    break
                move = min(cap, row[x], headroom, nic_out[a])
                row[x] -= move
                relay[b][x] += move
                vlb_out[a][x] += move
                nic_out[a] -= move
                cap -= move
                headroom -= move
        for b in range(n):
            column = vlb_out[:, b]
            total = column.sum()
            if relay_to[b] > 0 and total > 0:
                column *= max(0.0, 1.0 - relay_to[b] / total)
        delivered_total += delivered
        series.append(((s + 1) * slice_ms, delivered / aggregate))
        for p in [p for p in pending if local[p] <= 1e-6 and vlb_out[p] <= 1e-6]:
            completion[p] = (s + 1) * slice_ms
            pending.remove(p)
        if not pending and local.sum() <= 1e-6 and relay.sum() <= 1e-6:
            break
    return FluidResult(series, completion, delivered_total, sim._offered, s + 1)


def _random_sim(seed):
    rng = np.random.default_rng(seed)
    n, u = [(24, 6), (16, 4), (12, 3), (32, 8)][seed % 4]
    if seed % 3 == 2:
        sched = RotorNetSchedule(n, u, seed=seed)
    else:
        group = u if seed % 2 else [g for g in range(1, u) if u % g == 0][-1]
        sched = OperaSchedule(n, u, group_size=group, seed=seed, require_connected=False)
    sim = RotorFluidSimulation(
        sched,
        TimingParams(n_racks=n, n_switches=u),
        hosts_per_rack=int(rng.integers(2, 7)),
        background_ll_load=float(rng.choice([0.0, 0.05])),
        relay_cap_bytes=float(rng.choice([3e5, 1e6, 50e6])),
        enable_vlb=bool(seed % 5),
    )
    demand = rng.integers(0, 5, size=(n, n)) * float(rng.choice([5e4, 2.5e5, 1e6]))
    demand *= rng.random((n, n)) < 0.5
    np.fill_diagonal(demand, 0.0)
    sim.add_demand(demand)
    return sim


@pytest.mark.parametrize("seed", range(10))
def test_matches_one_circuit_at_a_time_definition(seed):
    """Random shapes, schedules, caps and demands, horizon hit or not."""
    horizon = 40 + 60 * seed
    expected = _reference_run(_random_sim(seed), horizon)
    result = _random_sim(seed).run(max_slices=horizon)
    assert content_hash(to_portable(result)) == content_hash(to_portable(expected))


class TestRotorFluid:
    def test_conservation(self, small_setup):
        sched, timing = small_setup
        sim = make_sim(sched, timing)
        sim.add_all_to_all(50_000)
        result = sim.run(max_slices=3000)
        assert result.all_complete
        assert result.delivered_bytes == pytest.approx(result.offered_bytes, rel=1e-9)

    def test_diagonal_rejected(self, small_setup):
        sched, timing = small_setup
        sim = make_sim(sched, timing)
        demand = np.eye(24) * 100
        with pytest.raises(ValueError):
            sim.add_demand(demand)

    def test_shape_mismatch_rejected(self, small_setup):
        sched, timing = small_setup
        sim = make_sim(sched, timing)
        with pytest.raises(ValueError):
            sim.add_demand(np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_malformed_demand_rejected(self, small_setup, bad):
        sched, timing = small_setup
        sim = make_sim(sched, timing)
        demand = np.full((24, 24), 1000.0)
        np.fill_diagonal(demand, 0.0)
        demand[3][7] = bad
        with pytest.raises(ValueError, match="demand matrix has"):
            sim.add_demand(demand)
        assert sim.local.sum() == 0.0

    @pytest.mark.parametrize("max_slices", [0, -1])
    def test_nonpositive_horizon_rejected(self, small_setup, max_slices):
        sched, timing = small_setup
        sim = make_sim(sched, timing)
        sim.add_all_to_all(50_000)
        with pytest.raises(ValueError, match="max_slices"):
            sim.run(max_slices=max_slices)

    def test_percentile_ranks_unfinished_pairs_last(self, small_setup):
        """A pair still pending at the horizon counts as +inf, not as absent."""
        sched, timing = small_setup
        sim = make_sim(sched, timing, enable_vlb=False)
        sim.add_all_to_all(50_000)
        _hot_pairs(sim, (0, 1))
        result = sim.run(max_slices=60)
        times = result.pair_completion_ms
        assert times[(0, 1)] is None
        assert sum(v is None for v in times.values()) == 1
        finished = sorted(v for v in times.values() if v is not None)
        assert result.completion_percentile_ms(100) is None
        assert result.completion_percentile_ms(99) == finished[546]
        assert result.completion_percentile_ms(0) == finished[0]

    def test_percentile_of_no_pairs(self):
        result = FluidResult([(0.1, 0.0)], {}, 0.0, 0.0, 1)
        assert result.completion_percentile_ms(50) is None

    def test_throughput_bounded(self, small_setup):
        sched, timing = small_setup
        sim = make_sim(sched, timing)
        sim.add_all_to_all(100_000)
        result = sim.run(max_slices=5000)
        for _t, v in result.throughput_series:
            assert 0.0 <= v <= 1.001

    def test_uniform_throughput_near_duty_bound(self, small_setup):
        """All-to-all rides direct circuits: plateau ~ (u-1)/u * duty.

        Uses the 1:1-provisioned shape (d = u = 6) the bound assumes.
        """
        sched, timing = small_setup
        sim = RotorFluidSimulation(sched, timing, hosts_per_rack=6)
        sim.add_all_to_all(200_000)
        result = sim.run(max_slices=8000)
        mid = [v for t, v in result.throughput_series[: result.slices_run // 2]]
        plateau = float(np.mean(mid))
        bound = (5 / 6) * timing.duty_cycle
        assert 0.8 * bound < plateau <= bound * 1.02

    def test_hot_pair_uses_vlb(self, small_setup):
        sched, timing = small_setup
        demand = np.zeros((24, 24))
        demand[0][1] = 30e6
        with_vlb = make_sim(sched, timing)
        with_vlb.add_demand(demand.copy())
        res_vlb = with_vlb.run(max_slices=8000)
        without = make_sim(sched, timing, enable_vlb=False)
        without.add_demand(demand.copy())
        res_novlb = without.run(max_slices=8000)
        t_vlb = res_vlb.pair_completion_ms[(0, 1)]
        t_novlb = res_novlb.pair_completion_ms[(0, 1)]
        assert t_vlb is not None and t_novlb is not None
        assert t_vlb < t_novlb / 2  # VLB multiplies the hot pair's capacity

    def test_background_load_slows_bulk(self, small_setup):
        sched, timing = small_setup
        free = make_sim(sched, timing)
        free.add_all_to_all(50_000)
        loaded = make_sim(sched, timing, background_ll_load=0.10)
        loaded.add_all_to_all(50_000)
        t_free = free.run(max_slices=5000).completion_percentile_ms(99)
        t_loaded = loaded.run(max_slices=5000).completion_percentile_ms(99)
        assert t_free is not None and t_loaded is not None
        assert t_loaded > t_free

    def test_rotornet_schedule_supported(self):
        sched = RotorNetSchedule(24, 6, seed=0)
        timing = TimingParams(n_racks=24, n_switches=6)
        sim = RotorFluidSimulation(sched, timing, hosts_per_rack=3)
        sim.add_all_to_all(50_000)
        result = sim.run(max_slices=4000)
        assert result.all_complete

    def test_unfinished_at_horizon(self, small_setup):
        sched, timing = small_setup
        sim = make_sim(sched, timing)
        sim.add_all_to_all(10_000_000)
        result = sim.run(max_slices=10)
        assert not result.all_complete
        assert result.completion_percentile_ms(99) is None


class TestStaticShuffle:
    def test_conservation(self):
        result = static_shuffle_run(
            throughput=1 / 3,
            n_racks=24,
            hosts_per_rack=3,
            bytes_per_host_pair=50_000,
        )
        assert result.delivered_bytes == pytest.approx(result.offered_bytes)
        assert result.all_complete

    def test_lower_throughput_takes_longer(self):
        fast = static_shuffle_run(0.5, 24, 3, 50_000)
        slow = static_shuffle_run(0.25, 24, 3, 50_000)
        assert (
            slow.completion_percentile_ms(99) > fast.completion_percentile_ms(99)
        )

    def test_plateau_height(self):
        result = static_shuffle_run(0.4, 24, 3, 500_000, startup_ms=1.0)
        mid = [v for t, v in result.throughput_series if t > 2.0][:50]
        assert np.mean(mid) == pytest.approx(0.4, rel=0.05)

    def test_invalid_throughput(self):
        with pytest.raises(ValueError):
            static_shuffle_run(0.0, 24, 3, 1000)
