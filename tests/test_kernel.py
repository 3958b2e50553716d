"""Differential tests for the compiled engine kernel (``REPRO_KERNEL``).

The kernel contract is that the compiled fast path is *invisible*: a run
under ``REPRO_KERNEL=c`` must be bit-identical to the pure-Python oracle
(``REPRO_KERNEL=py``) — same timestamps, tie-breaks, FCT rows, hop and
drop counts, ``events_processed`` and ``pending`` — under every
executor. These tests pin that with random event cascades, full packet
workloads on every network kind compared
observable-by-observable, scenario Runner rows (including a distributed
smoke run whose spawned workers inherit the kernel selection), and the
seam mechanics themselves (env parsing, graceful fallback when the
compiled module is absent).
"""

import random
import warnings

import pytest

from repro.net import kernel as kernel_mod
from repro.net.kernel import compiled_available, engine_classes, kernel_default

requires_c = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel (_ckernel) not built in this environment",
)

NETWORK_KINDS = ["opera", "expander", "clos", "rotornet", "rotornet-hybrid"]


@pytest.fixture
def kernel_workload(packet_workload, monkeypatch):
    """packet_workload with the kernel axis pinned via the env seam."""

    def run(kernel, kind="opera", seed=11):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        return packet_workload(kind=kind, seed=seed)

    return run


class TestKernelSeam:
    def test_known_kernels(self):
        assert kernel_mod.KERNELS == ("py", "c")

    def test_env_default_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_default() == "auto"
        monkeypatch.setenv("REPRO_KERNEL", "py")
        assert kernel_default() == "py"
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ValueError, match="turbo"):
            kernel_default()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="pypy"):
            engine_classes("pypy")

    def test_py_classes_are_the_plain_engine(self):
        from repro.net.link import Port
        from repro.net.ndp import NdpSink, NdpSource, PullPacer
        from repro.net.node import Host, SwitchNode
        from repro.net.sim import Simulator

        classes = engine_classes("py")
        assert classes.name == "py"
        assert classes.Simulator is Simulator
        assert classes.Port is Port
        assert classes.Host is Host
        assert classes.SwitchNode is SwitchNode
        assert classes.NdpSource is NdpSource
        assert classes.NdpSink is NdpSink
        assert classes.PullPacer is PullPacer

    @requires_c
    def test_c_classes_subclass_the_python_engine(self):
        py = engine_classes("py")
        ck = engine_classes("c")
        assert ck.name == "c"
        for field in ("Simulator", "Port", "Host", "SwitchNode",
                      "NdpSource", "NdpSink", "PullPacer"):
            c_cls, py_cls = getattr(ck, field), getattr(py, field)
            assert c_cls is not py_cls
            assert issubclass(c_cls, py_cls)
            # One data layout, two method implementations.
            assert c_cls.__slots__ == ()

    @requires_c
    def test_auto_prefers_compiled(self):
        assert engine_classes("auto").name == "c"

    def test_missing_compiled_module_degrades_with_warning(self, monkeypatch):
        # REPRO_KERNEL=c without the extension must *run* (pure-Python
        # classes), warning once — a build problem never fails a sim.
        monkeypatch.setattr(kernel_mod, "_COMPILED", False)
        monkeypatch.setattr(kernel_mod, "_WARNED", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            classes = engine_classes("c")
        assert classes.name == "py"
        # Second resolution is silent (one-time warning) and still works.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert engine_classes("c").name == "py"
            assert engine_classes("auto").name == "py"


def kernel_cascade(kernel, seed):
    """Seeded self-scheduling storm on the selected kernel's Simulator."""
    sim = engine_classes(kernel).Simulator()
    rng = random.Random(seed)
    trace = []

    def fire(tag):
        trace.append((sim.now, tag))
        k = rng.choices((0, 1, 2, 3), weights=(5, 3, 2, 1))[0]
        for i in range(k):
            delay = rng.choice(
                (0, rng.randrange(1, 80_000), rng.randrange(1, 5_000_000_000))
            )
            if rng.random() < 0.5:
                sim.after(delay, fire, f"{tag}.{i}")
            else:
                sim.at(sim.now + delay, fire, f"{tag}.{i}")

    for i in range(40):
        sim.at(rng.randrange(0, 50_000_000), fire, str(i))
    for chunk in (
        dict(until_ps=100_000_000, max_events=500),
        dict(until_ps=2_000_000_000),
        dict(max_events=3_000),
        dict(),
    ):
        sim.run(**chunk)
    return tuple(trace), sim.now, sim.events_processed, sim.pending


@requires_c
class TestKernelCascades:
    @pytest.mark.parametrize("seed", range(10))
    def test_cascades_identical_across_kernel_and_combos(self, seed):
        # Each cascade combines at/after scheduling with budgeted and
        # horizon-cut drains.
        assert kernel_cascade("c", seed) == kernel_cascade("py", seed)

    def test_compiled_run_loop_is_exercised(self):
        # The c cascade must actually run through CKSimulator.run — pin
        # that the resolved class is the compiled subclass, not a silent
        # fallback.
        sim_cls = engine_classes("c").Simulator
        assert sim_cls.__name__ == "CKSimulator"
        assert sim_cls.run is not engine_classes("py").Simulator.run


@requires_c
class TestKernelPacketDifferential:
    """Full packet workloads: c == py observable-by-observable."""

    OBSERVABLES = ("events", "final_now", "pending", "fcts", "port_stats", "drops")

    @pytest.mark.parametrize("kind", NETWORK_KINDS)
    def test_every_network_kind_bit_identical(self, kernel_workload, kind):
        py = kernel_workload("py", kind=kind)
        ck = kernel_workload("c", kind=kind)
        for key in self.OBSERVABLES:
            assert ck[key] == py[key], (kind, key)
        # The runs do real work (the differential is not vacuous).
        assert py["events"] > 1_000 and py["fcts"]

    def test_retransmission_path_is_exercised_and_identical(self, kernel_workload):
        # Higher load on the small fabric forces trims -> NACK -> rtx, so
        # the kernel's NACK/PULL handlers are differentially covered.
        py = kernel_workload("py", kind="clos", seed=5)
        ck = kernel_workload("c", kind="clos", seed=5)
        assert py["fcts"] == ck["fcts"]
        assert any(rtx for _fid, _fct, _b, rtx in py["fcts"]) or any(
            t for *_s, t in [(s[2],) for s in py["port_stats"].values()]
        )


class TestKernelRunnerDifferential:
    """REPRO_KERNEL=py == c through the scenario Runner."""

    OVERRIDES = {
        "loads": (0.02, 0.05),
        "networks": ("opera", "rotornet"),
        "duration_ms": 0.4,
        "scale": "ci",
    }

    @requires_c
    def test_fig07_rows_identical_across_kernels(self, monkeypatch):
        from repro.scenarios import Runner

        monkeypatch.setenv("REPRO_KERNEL", "py")
        py = Runner(cache=None).execute("fig07", **self.OVERRIDES)
        monkeypatch.setenv("REPRO_KERNEL", "c")
        ck = Runner(cache=None).execute("fig07", **self.OVERRIDES)
        assert py == ck

    @requires_c
    def test_fig09_rows_identical_across_kernels(self, monkeypatch):
        from repro.scenarios import Runner

        overrides = {
            "loads": (0.02,),
            "networks": ("opera", "clos"),
            "duration_ms": 0.4,
            "scale": "ci",
        }
        monkeypatch.setenv("REPRO_KERNEL", "py")
        py = Runner(cache=None).execute("fig09", **overrides)
        monkeypatch.setenv("REPRO_KERNEL", "c")
        ck = Runner(cache=None).execute("fig09", **overrides)
        assert py == ck

    @requires_c
    def test_distributed_smoke_under_c_kernel(self, monkeypatch, tmp_path):
        # Spawned workers inherit REPRO_KERNEL from the environment; a
        # distributed c-kernel run must match the in-process py oracle.
        from repro.scenarios import ResultCache, Runner

        tiny = {
            "loads": (0.02,),
            "networks": ("opera",),
            "duration_ms": 0.4,
            "scale": "ci",
        }
        monkeypatch.setenv("REPRO_KERNEL", "py")
        plain = Runner(cache=None).execute("fig07", **tiny)
        monkeypatch.setenv("REPRO_KERNEL", "c")
        dist = Runner(
            cache=ResultCache(tmp_path), executor="distributed", workers=2
        ).run(names=["fig07"], overrides=tiny)[0]
        assert dist.value == plain


@requires_c
def test_compiled_module_is_built_from_the_committed_source():
    # The compiled module is tracked in git and used whenever it imports;
    # setup.py embeds the sha256 of the _ckernel.c it was built from.
    import hashlib
    from pathlib import Path

    from repro.net.kernel import _ckernel

    source = Path(kernel_mod.__file__).with_name("_ckernel.c")
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
    assert getattr(_ckernel, "SOURCE_SHA256", None) == digest, (
        f"{_ckernel.__file__} was not built from the current {source.name}; "
        "rebuild it with `python setup.py build_ext --inplace`"
    )


def big_time_trace(kernel):
    """A self-scheduling run whose event times climb to exactly 2**62."""
    sim = engine_classes(kernel).Simulator()
    rng = random.Random(62)
    top = 2**62
    base = top - 5_000_000_000
    trace = []

    def fire(tag):
        trace.append((sim.now, tag))
        if len(trace) < 400:
            step = rng.choice((0, rng.randrange(1, 50_000_000)))
            if sim.now + step <= top:
                sim.after(step, fire, tag + 1)
            for _ in range(rng.randrange(0, 3)):
                sim.at(min(top, sim.now + rng.randrange(0, 90_000_000)), fire, tag + 7)

    sim.at(base, fire, 0)
    sim.at(top, fire, 1_000)
    for i in range(5):
        sim.at(base + i * 7_000_000, fire, 100 + i)
    sim.run(until_ps=base + 1_000_000_000, max_events=150)
    sim.run(until_ps=top)
    return tuple(trace), sim.now, sim.events_processed, sim.pending


@requires_c
class TestInt64Boundary:
    """The compiled kernel's int64 limit ends in one named error."""

    LIMIT = 2**63

    def sim(self):
        return engine_classes("c").Simulator()

    def noop(self):
        pass

    def test_times_up_to_2_pow_62_are_bit_identical(self):
        py = big_time_trace("py")
        assert py[0][-1][0] == 2**62 and len(py[0]) > 100
        assert big_time_trace("c") == py

    def test_at(self):
        with pytest.raises(OverflowError, match="REPRO_KERNEL=py"):
            self.sim().at(self.LIMIT, self.noop)

    def test_after(self):
        sim = self.sim()
        with pytest.raises(OverflowError, match="REPRO_KERNEL=py"):
            sim.after(self.LIMIT, self.noop)
        # A delay that fits but whose sum with now does not.
        sim.at(10, self.noop)
        sim.run()
        with pytest.raises(OverflowError, match="REPRO_KERNEL=py"):
            sim.after(self.LIMIT - 5, self.noop)

    def test_run(self):
        with pytest.raises(OverflowError, match="REPRO_KERNEL=py"):
            self.sim().run(until_ps=self.LIMIT)
        # An event time past int64 already on the heap (pushed through the
        # pure-Python scheduler) fails the compiled run loop the same way.
        sim = self.sim()
        engine_classes("py").Simulator.at(sim, self.LIMIT, self.noop)
        with pytest.raises(OverflowError, match="REPRO_KERNEL=py"):
            sim.run()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--profile", "3"], ["c"]),
        (["--profile", "3", "--kernels", "py,c"], ["py", "c"]),
    ],
)
def test_microbench_profile_honours_kernels(monkeypatch, capsys, argv, expected):
    # --profile profiles the shipping kernel unless --kernels says
    # otherwise, and splits the event loop's self time from callbacks.
    import importlib
    import sys
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "benchmarks"))
    mb = importlib.import_module("engine_microbench")
    profiled = []

    def tiny_run_network(kind, kernel="py"):
        profiled.append(kernel)
        sim = engine_classes(kernel).Simulator()
        sim.at(5, sys.getrecursionlimit)
        sim.run()

    monkeypatch.setattr(mb, "run_network", tiny_run_network)
    monkeypatch.setattr(mb, "WORKLOAD", {**mb.WORKLOAD, "networks": ["opera"]})
    if "c" in expected and not compiled_available():
        expected = [k for k in expected if k != "c"]
    assert mb.main(argv) == 0
    assert profiled == expected
    out = capsys.readouterr().out
    for kernel in expected:
        assert f"REPRO_KERNEL={kernel}" in out
    assert out.count("event loop:") == len(expected)


@pytest.mark.parametrize("kernel", ["py", pytest.param("c", marks=requires_c)])
def test_sched_entries_are_events_plus_pending(monkeypatch, kernel):
    # One heap entry per event: every insertion on a ci-scale fig07 opera
    # cell has either been dispatched or is still pending after the run.
    from repro.experiments import fctsim

    built = []
    build = fctsim.build_network

    def capture(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setenv("REPRO_KERNEL", kernel)
    monkeypatch.setattr(fctsim, "build_network", capture)
    fctsim.run_fct_cell("opera", 0.1, "datamining", 4.0, 0, "ci")
    (net,) = built
    assert net.kernel.name == kernel
    counters = net.sim.counters()
    assert set(counters) == {"events", "sched_entries", "pending"}
    assert counters["sched_entries"] == counters["events"] + net.sim.pending
    assert counters["events"] > 10_000
