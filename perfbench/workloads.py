"""The four benchmark workloads: inputs from the seed, timed runs, checks.

Inputs. A workload's seed picks which inputs a run uses, from a pool
whose result digests and deterministic counts were recorded at the
commit that defined the benchmark (``reference.json``, written by
``record.py``). The program receives only the generated parameters: a
scenario seed per pass, a job seed per service job. The number of
passes (or jobs) follows from ``--seconds`` and a nominal pass time, so
the same seed and seconds always give the same input, whatever the speed
of the code under test.

Checks. Every pass's rows are hashed with ``content_hash`` and compared
with the recorded digest for its input. Every service job's rows must
also equal the rows of the same sweep run in-process (service ==
in-process). A mismatch, an exception or a quarantined unit counts as a
failed unit. Deterministic counts (anchors) that differ from the record
are named on standard error; they do not fail the run.
"""

from __future__ import annotations

import os
import random
import secrets
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from layers import Patches, Recorder, install
from service import Service, ServiceError, peak_rss_mb

WORKLOADS = ("fct_rotor", "fct_static", "shuffle_fluid", "sweep_service")

FCT_ANCHORS = ("core.factorization_attempts", "net.events", "net.sched_entries", "net.packet_hops")


@dataclass(frozen=True)
class InProcess:
    """A workload run through ``Runner.run`` in this process, cache off."""

    scenario: str
    overrides: dict[str, Any]
    #: Seconds of ``--seconds`` per pass: a run makes
    #: ``round(seconds / pass_s)`` passes. fct_rotor's inputs differ most
    #: in cost, so it gets more passes than its 5-8 s pass time would buy.
    pass_s: float
    #: The anchor counting one pass's work, for ``work_per_s``.
    work: str
    anchors: tuple[str, ...]


SPECS = {
    # Figure 7 bulk path: RotorLB, Opera schedule build, route closures.
    "fct_rotor": InProcess(
        "fig07",
        {"networks": ("opera", "rotornet-hybrid"), "loads": (0.10, 0.25), "scale": "default"},
        5.0, "net.packet_hops", FCT_ANCHORS,
    ),
    # Figure 9 static fabrics: NDP over multi-hop paths, no RotorLB.
    "fct_static": InProcess(
        "fig09",
        {"networks": ("expander", "clos"), "loads": (0.05, 0.10), "scale": "default"},
        2.5, "net.packet_hops", FCT_ANCHORS,
    ),
    # Figure 8 at paper scale: the fluid simulator; the packet engine idles.
    "shuffle_fluid": InProcess(
        "fig08", {}, 5.7, "fluid.slices", ("core.factorization_attempts", "fluid.slices"),
    ),
}

#: Scenario seeds per in-process workload pool; job seeds for the service.
POOL = 12
JOB_POOL = 1024

#: One service job: a ci-scale Figure 9 sweep of four cells.
SERVICE_SCENARIO = "fig09"
SERVICE_OVERRIDES = {
    "networks": ("expander", "clos"),
    "loads": (0.05, 0.10),
    "scale": "ci",
    "duration_ms": 1.0,
}
SERVICE_ANCHORS = ("distrib.units", "net.events", "net.sched_entries", "net.packet_hops")
CLIENTS = 2
#: Jobs per second of ``--seconds``; the two closed-loop clients
#: complete about 8 per second here.
JOBS_PER_S = 7.0
#: Service launches per run; the last one serves the measured jobs.
SERVICE_STARTS = 3
#: Fresh-process imports per run for the in-process set-up time.
IMPORT_REPS = 5
#: Alternating untraced/traced blocks of the traced service run.
SERVICE_BLOCKS = 4

_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import repro.experiments\n"
    "from repro.net.kernel import compiled_available\n"
    "ok = compiled_available()\n"
    "print(time.perf_counter() - t, ok)\n"
)

_perf = time.perf_counter


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    spans: list[Any] = field(default_factory=list)
    samples: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def summary(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def pass_seeds(workload: str, seed: int, seconds: float) -> list[int]:
    """Scenario seeds of one run's passes, drawn from the pool."""
    n = max(1, round(seconds / SPECS[workload].pass_s))
    order = list(range(POOL))
    random.Random(f"{workload}:{seed}").shuffle(order)
    return [order[i % POOL] for i in range(n)]


def job_seeds(seed: int, seconds: float) -> list[int]:
    """Distinct job seeds of one service run, drawn from the pool."""
    n = min(JOB_POOL, max(4 * CLIENTS, round(seconds * JOBS_PER_S)))
    return random.Random(f"sweep_service:{seed}").sample(range(JOB_POOL), n)


def measure_imports(env: dict[str, str], reps: int) -> tuple[list[float], list[float]]:
    """``reps`` fresh-process imports: (process wall, in-process import) seconds."""
    walls, imports = [], []
    for _ in range(reps):
        start = _perf()
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True
        )
        walls.append(_perf() - start)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[1] != "True":
            raise RuntimeError(f"import probe failed: {proc.stdout}{proc.stderr[-2000:]}")
        imports.append(float(fields[0]))
    return walls, imports


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ------------------------------------------------------------------ in-process


def _pass(spec: InProcess, scenario_seed: int) -> tuple[float, Any]:
    from repro.scenarios import Runner

    runner = Runner(cache=None, executor="local")
    start = _perf()
    results = runner.run([spec.scenario], overrides={**spec.overrides, "seed": scenario_seed})
    return _perf() - start, results[0]


def _check_rows(result: Result, label: str, res: Any, digest: str) -> None:
    from repro.scenarios import content_hash

    result.attempted += 1
    if res.quarantined:
        result.fail(f"{label}: quarantined units {[q['label'] for q in res.quarantined]}")
        return
    got = content_hash(res.rows)
    if got != digest:
        result.fail(f"{label}: rows digest {got[:16]} != recorded {digest[:16]}")


def _warm_up(spec: InProcess) -> None:
    """Load the registry, the kernel and lazy imports outside the timing."""
    from repro.scenarios import Runner

    runner = Runner(cache=None, executor="local")
    if spec.scenario == "fig08":
        runner.run(["fig08"], overrides={"k": 8, "n_racks": 16})
    else:
        runner.run([spec.scenario], overrides={**spec.overrides, "scale": "ci", "duration_ms": 0.25})


def run_inprocess(
    workload: str, seed: int, seconds: float, traced: bool,
    reference: dict[str, Any], env: dict[str, str], result: Result,
) -> None:
    spec = SPECS[workload]
    ref = reference[workload]
    seeds = pass_seeds(workload, seed, seconds)
    setup_walls, imports = measure_imports(env, IMPORT_REPS)
    _warm_up(spec)
    if not traced:
        walls, work = [], 0
        for s in seeds:
            label = f"{workload} pass seed {s}"
            try:
                wall, res = _pass(spec, s)
            except Exception:
                result.attempted += 1
                result.fail(f"{label}: {traceback.format_exc()}")
                continue
            walls.append(wall)
            work += ref[str(s)]["anchors"][spec.work]
            _check_rows(result, label, res, ref[str(s)]["digest"])
        result.samples.update(setup_s=setup_walls, pass_s=walls, pass_seeds=seeds)
        result.metrics["setup_s"] = (statistics.median(setup_walls), "s")
        result.metrics["work_per_s"] = (work / sum(walls) if walls else 0.0, "1/s")
        result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return

    pairs = seeds[: max(1, len(seeds) // 2)]
    rec = Recorder()
    plain, wrapped, compute = [], [], 0.0
    for i, s in enumerate(pairs):
        for wrap in ((False, True) if i % 2 == 0 else (True, False)):
            label = f"{workload} pass seed {s} ({'traced' if wrap else 'untraced'})"
            try:
                if wrap:
                    with Patches() as patches:
                        install(rec, patches)
                        wall, res = _pass(spec, s)
                else:
                    wall, res = _pass(spec, s)
            except Exception:
                result.attempted += 1
                result.fail(f"{label}: {traceback.format_exc()}")
                continue
            _check_rows(result, label, res, ref[str(s)]["digest"])
            if wrap:
                wrapped.append(wall)
                compute += res.duration_s
            else:
                plain.append(wall)
    expected = {k: sum(ref[str(s)]["anchors"][k] for s in pairs) for k in spec.anchors}
    layer_metrics(
        result, rec, imports=imports, plain=plain, wrapped=wrapped,
        jobs=plain, compute=compute, expected=expected, releases=0,
    )
    result.spans = rec.spans()


# --------------------------------------------------------------------- service


@dataclass
class _Job:
    seed: int
    latency: float = 0.0
    compute: float = 0.0
    units: int = 0
    digest: str | None = None
    error: str | None = None
    counters: dict[str, int] = field(default_factory=dict)


def _service_job(svc: Service, job: _Job, cache_dir: Path) -> None:
    from repro.obs.trace import load_trace
    from repro.scenarios import ResultCache, Runner, content_hash, from_portable

    runner = Runner(
        executor="service", service=svc.address, secret=svc.secret,
        cache=ResultCache(cache_dir),
    )
    start = _perf()
    res = runner.run([SERVICE_SCENARIO], overrides={**SERVICE_OVERRIDES, "seed": job.seed})[0]
    job.latency = _perf() - start
    job.compute = res.duration_s
    job.units = res.cells[2] if res.cells else 0
    if res.quarantined:
        job.error = f"quarantined units {[q['label'] for q in res.quarantined]}"
        return
    job.digest = content_hash(res.rows)
    for path in sorted((cache_dir / "_trace").glob("*.jsonl")):
        for event in load_trace(path):
            if event.get("ev") == "completed" and "telemetry" in event:
                counters = from_portable(event["telemetry"])["counters"]
                for name, key in (("net.events", "engine.events"),
                                  ("net.sched_entries", "engine.sched_entries"),
                                  ("net.packet_hops", "port.sent_packets")):
                    job.counters[name] = job.counters.get(name, 0) + counters.get(key, 0)


def _run_block(svc: Service, jobs: list[_Job], scratch: Path) -> float:
    """Two closed-loop clients work through ``jobs``; returns the block wall."""

    def client(mine: list[_Job]) -> None:
        for job in mine:
            try:
                _service_job(svc, job, scratch / f"client-cache-{job.seed}")
            except Exception:
                job.error = traceback.format_exc()

    threads = [
        threading.Thread(target=client, args=(jobs[c::CLIENTS],), daemon=True)
        for c in range(CLIENTS)
    ]
    start = _perf()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=150.0)
    wall = _perf() - start
    if any(t.is_alive() for t in threads):
        raise ServiceError("service clients still running after 150 s")
    return wall


def run_service(
    seed: int, seconds: float, traced: bool, reference: dict[str, Any],
    scratch: Path, env: dict[str, str], result: Result,
) -> None:
    from repro.scenarios import Runner, content_hash

    ref = reference["sweep_service"]
    jobs = [_Job(s) for s in job_seeds(seed, seconds)]
    secret_file = scratch / "secret"
    secret_file.write_text(secrets.token_hex(16))
    svc_env = dict(env, REPRO_TELEMETRY="1") if traced else env
    svc = Service(scratch, svc_env, secret_file)
    setups: list[float] = []
    rec = Recorder()
    blocks: list[tuple[bool, float, list[_Job]]] = []
    rss = 0.0
    releases = 0
    try:
        for i in range(SERVICE_STARTS):
            setups.append(svc.start(str(i)))
            if i < SERVICE_STARTS - 1:
                svc.stop()
        if not traced:
            blocks.append((False, _run_block(svc, jobs, scratch), jobs))
        else:
            size = -(-len(jobs) // SERVICE_BLOCKS)
            for b in range(SERVICE_BLOCKS):
                part = jobs[b * size:(b + 1) * size]
                wrap = b % 2 == 1
                if wrap:
                    # Armed client side too, so each job's trace stream
                    # carries the workers' engine counters.
                    os.environ["REPRO_TELEMETRY"] = "1"
                    try:
                        with Patches() as patches:
                            install(rec, patches)
                            wall = _run_block(svc, part, scratch)
                    finally:
                        del os.environ["REPRO_TELEMETRY"]
                else:
                    wall = _run_block(svc, part, scratch)
                blocks.append((wrap, wall, part))
            releases = int(svc.fetch_status().get("releases", 0))
        rss = peak_rss_mb() + svc.peak_rss_mb()
    except ServiceError as exc:
        result.attempted += 1
        result.fail(f"sweep_service: {exc}")
    finally:
        try:
            svc.stop()
        except ServiceError as exc:
            result.attempted += 1
            result.fail(f"sweep_service teardown: {exc}")

    # Output checks, after the service is gone so they load no timing.
    check_start = _perf()
    local = Runner(cache=None, executor="local")
    for job in (j for _, _, part in blocks for j in part):
        label = f"sweep_service job seed {job.seed}"
        result.attempted += 1
        if job.error is not None:
            result.fail(f"{label}: {job.error}")
            continue
        rows = local.run([SERVICE_SCENARIO], overrides={**SERVICE_OVERRIDES, "seed": job.seed})[0].rows
        if content_hash(rows) != job.digest:
            result.fail(f"{label}: service rows differ from the in-process rows")
        elif job.digest != ref[str(job.seed)]["digest"]:
            result.fail(f"{label}: rows digest {job.digest[:16]} != recorded")
    result.samples["check_s"] = _perf() - check_start

    done = [j for _, _, part in blocks for j in part if j.error is None]
    if not traced:
        wall = sum(w for _, w, _ in blocks)
        result.samples.update(setup_s=setups, job_s=[j.latency for j in done], wall_s=wall)
        result.metrics["setup_s"] = (statistics.median(setups) if setups else 0.0, "s")
        result.metrics["work_per_s"] = (sum(j.units for j in done) / wall if wall else 0.0, "1/s")
        result.metrics["peak_rss_mb"] = (rss, "MB")
        return

    traced_jobs = [j for wrap, _, part in blocks if wrap for j in part]
    expected = {k: sum(ref[str(j.seed)]["anchors"][k] for j in traced_jobs) for k in SERVICE_ANCHORS}
    for job in traced_jobs:
        for name, value in job.counters.items():
            rec.count(name, value)
    _, imports = measure_imports(env, IMPORT_REPS)
    layer_metrics(
        result, rec, imports=imports,
        plain=[w for wrap, w, _ in blocks if not wrap],
        wrapped=[w for wrap, w, _ in blocks if wrap],
        jobs=[j.latency for wrap, _, part in blocks if not wrap for j in part if j.error is None],
        compute=sum(j.compute for j in traced_jobs),
        expected=expected, releases=releases,
        job_wall=sum(j.latency for j in traced_jobs),
    )
    result.spans = rec.spans()


# ----------------------------------------------------------------- per layer

#: Per-layer share metrics: ``name -> (recorder layer, which time)``.
SHARES = {
    "scenarios.runner_share": ("scenarios.runner", "self"),
    "scenarios.encode_share": ("scenarios.encode", "self"),
    "scenarios.cache_put_share": ("scenarios.cache_put", "self"),
    "experiments.unit_share": ("experiments.unit", "self"),
    "core.schedule_build_share": ("core.schedule_build", "total"),
    "net.build_share": ("net.build", "self"),
    "workloads.flows_share": ("workloads.flows", "self"),
    "net.inject_share": ("net.inject", "self"),
    "net.run_share": ("net.run", "total"),
    "net.c_loop_self_share": ("net.run", "self"),
    "net.route_share": ("net.route", "self"),
    "net.rotorlb.on_slice_share": ("net.rotorlb.on_slice", "self"),
    "net.rotorlb.packet_share": ("net.rotorlb.packet", "self"),
    "net.stats.delivered_share": ("net.stats.delivered", "self"),
    "fluid.run_share": ("fluid.run", "self"),
    "fluid.static_share": ("fluid.static", "self"),
    "analysis.throughput_share": ("analysis.throughput", "self"),
    "distrib.submit_share": ("distrib.submit", "self"),
    "distrib.stream_share": ("distrib.stream", "self"),
}

#: Per-layer call counts: ``name -> recorder layer``.
CALLS = {
    "core.factorization_attempts": "core.factorization",
    "net.route_calls": "net.route",
    "net.rotorlb.on_slice_calls": "net.rotorlb.on_slice",
    "net.rotorlb.packet_calls": "net.rotorlb.packet",
    "net.stats.delivered_calls": "net.stats.delivered",
    "scenarios.cache_puts": "scenarios.cache_put",
}

COUNTS = (
    "net.events", "net.sched_entries", "net.packet_hops", "net.drops",
    "net.flows_bulk", "net.flows_lowlat", "fluid.slices",
)


def layer_metrics(
    result: Result, rec: Recorder, *, imports: list[float], plain: list[float],
    wrapped: list[float], jobs: list[float], compute: float,
    expected: dict[str, int], releases: int, job_wall: float | None = None,
) -> None:
    """Fill the per-layer metrics of a traced run.

    Layer times are self-time shares of the traced wall (the traced
    passes, or the summed latency of the traced service jobs), so every
    workload reports every layer, as 0 where the layer does no work; the
    shares of all wrapped layers plus ``trace.unattributed_share`` add up
    to 1.
    """
    totals = rec.totals()
    counts = rec.counts
    traced_wall = sum(wrapped)
    base = job_wall if job_wall is not None else traced_wall
    untraced_wall = sum(plain)
    m = result.metrics

    def total(layer: str, which: str = "self") -> float:
        calls, tot, self_s = totals.get(layer, (0, 0.0, 0.0))
        return self_s if which == "self" else tot

    m["import.repro_s"] = (statistics.median(imports), "s")
    m["wall_s"] = (untraced_wall, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall if untraced_wall else 0.0, "ratio")
    m["job_s_p50"] = (quantile(jobs, 50) if jobs else 0.0, "s")
    m["job_s_p90"] = (quantile(jobs, 90) if jobs else 0.0, "s")
    m["job_s_samples"] = (len(jobs), "count")
    m["error_rate"] = (result.failed / result.attempted if result.attempted else 1.0, "ratio")
    hops = counts.get("net.packet_hops", 0)
    m["hops_per_s"] = (hops / untraced_wall if untraced_wall else 0.0, "hops/s")
    attributed = sum(self_s for _, _, self_s in totals.values())
    m["trace.unattributed_share"] = ((base - attributed) / base if base else 0.0, "ratio")
    runner_wall = total("scenarios.runner", "total")
    m["scenarios.overhead_share"] = ((runner_wall - compute) / base if base else 0.0, "ratio")
    m["distrib.compute_share"] = (compute / base if base and job_wall is not None else 0.0, "ratio")
    for name, (layer, which) in SHARES.items():
        m[name] = (total(layer, which) / base if base else 0.0, "ratio")
    for name, layer in CALLS.items():
        m[name] = (int(totals.get(layer, (0, 0.0, 0.0))[0]), "count")
    m["workloads.flows"] = (counts.get("workloads.flows", 0), "count")
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "count")
    flow_bytes = counts.get("net.flow_bytes", 0)
    m["net.bulk_bytes_frac"] = (counts.get("net.bulk_bytes", 0) / flow_bytes if flow_bytes else 0.0, "ratio")
    m["distrib.units"] = (counts.get("distrib.stream", 0), "count")
    m["distrib.releases"] = (releases, "count")
    observed = anchors(rec, expected)
    moved = sorted(k for k in expected if observed[k] != expected[k])
    for k in moved:
        result.problems.append(
            f"anchor {k} moved: {observed[k]} here, {expected[k]} recorded for the same inputs"
        )
    m["anchors.moved"] = (len(moved), "count")


def anchors(rec: Recorder, names: Any) -> dict[str, int]:
    """The deterministic counts ``names`` as a traced run observed them."""
    derived = {
        "core.factorization_attempts": int(rec.totals().get("core.factorization", (0,))[0]),
        "distrib.units": rec.counts.get("distrib.stream", 0),
    }
    return {n: derived[n] if n in derived else rec.counts.get(n, 0) for n in names}


def run(
    workload: str, seed: int, seconds: float, traced: bool,
    reference: dict[str, Any], scratch: Path, env: dict[str, str],
) -> Result:
    result = Result()
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "sweep_service":
            run_service(seed, seconds, traced, reference, scratch, env, result)
        else:
            run_inprocess(workload, seed, seconds, traced, reference, env, result)
    except Exception:
        result.attempted += 1
        result.fail(f"{workload}: {traceback.format_exc()}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result
