#!/usr/bin/env python3
"""The repository benchmark: four workloads in the shipping configuration.

Run from the repository root::

    python3 perfbench/run.py --workload fct_rotor --seed 0 --seconds 10 --trace 0

``--workload all`` runs the four workloads in turn and prints one line
per workload before a combined result line.

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped: ``setup_s`` (median of fresh-process imports, or of ``repro
serve`` launches until both workers are ready), ``work_per_s`` (packet
hops per second on the fct workloads, fluid slices per second on
shuffle_fluid, completed cells per second on sweep_service; each a
deterministic count of the run's input over its wall time) and
``peak_rss_mb`` (the serve process and its workers included).

``--trace 1`` runs the same workload again with layer entry points wrapped (see
``layers.py``) and prints the per-layer metrics, plus the tracing
overhead from alternating wrapped and unwrapped passes over the same
inputs. ``BENCHMARK.json`` at the repository root lists the workloads
and metrics and says why each workload was chosen.

The benchmark builds the program first: it copies ``src/`` into
``.bench_build/perfbench/src`` and compiles the C engine kernel there
from ``_ckernel.c`` with the repository's ``setup.py``, so the kernel it
measures is the one in the tree, never a stale prebuilt module. Every
process it starts imports from that copy.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the configuration (kernel, scheduler, nproc, Python, commit).
A wrong output makes ``correct`` false and the exit code 1; a refused
configuration or a missing source tree exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean

#: Process-wide switches that select a non-shipping engine or harness
#: path. Any of them in the environment would make the numbers describe
#: something other than what ships, so the benchmark refuses to run.
FORBIDDEN_ENV = (
    "REPRO_SCHEDULER",
    "REPRO_COALESCE",
    "REPRO_COALESCE_GAP_PS",
    "REPRO_NO_CKERNEL",
    "REPRO_SCALE",
    "REPRO_CHAOS",
    "REPRO_TELEMETRY",
    "REPRO_SECRET",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, build failure)."""


class ShippingConfigError(BenchError):
    """The engine in effect is not the shipping one (heap scheduler + C kernel)."""


def build(root: Path) -> Path:
    """Copy ``src/`` and compile the C kernel into it; returns the copy.

    Skipped when the copy's stamp (a digest of ``setup.py`` and every
    source file) matches the tree.
    """
    src = root / "src"
    setup_py = root / "setup.py"
    if not (src / "repro" / "__init__.py").is_file() or not setup_py.is_file():
        raise BenchError(
            f"no repro source tree (src/repro, setup.py) under {root}; "
            "run the benchmark from the repository root"
        )
    digest = hashlib.sha256(setup_py.read_bytes())
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix not in (".so", ".pyc"):
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    stamp = digest.hexdigest()
    out = root / ".bench_build" / "perfbench"
    target = out / "src"
    stamp_file = out / "stamp"
    if stamp_file.is_file() and stamp_file.read_text() == stamp and target.is_dir():
        return target
    for sub in ("src", "lib", "tmp"):
        shutil.rmtree(out / sub, ignore_errors=True)
    out.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=root,
        capture_output=True,
        text=True,
    )
    built = sorted((out / "lib").rglob("_ckernel*.so"))
    if proc.returncode != 0 or not built:
        raise BenchError(
            f"compiling the C kernel failed (exit {proc.returncode}):\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    shutil.copytree(src, target, ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"))
    shutil.copy2(built[0], target / "repro" / "net" / "kernel" / built[0].name)
    compileall.compile_dir(str(target), quiet=1)
    stamp_file.write_text(stamp)
    return target


def shipping_env(src: Path) -> dict[str, str]:
    """The environment every benchmark process runs under."""
    leaked = [name for name in FORBIDDEN_ENV if name in os.environ]
    kernel = os.environ.get("REPRO_KERNEL")
    if kernel not in (None, "", "c"):
        leaked.append(f"REPRO_KERNEL={kernel}")
    if leaked:
        raise ShippingConfigError(
            "refusing to measure a non-shipping configuration; unset "
            + ", ".join(leaked)
        )
    env = dict(os.environ)
    env["REPRO_KERNEL"] = "c"
    env["PYTHONPATH"] = str(src)
    return env


def check_engine(src: Path, root: Path) -> dict[str, object]:
    """Prove the engine in effect is the compiled heap engine; describe it."""
    from repro.experiments.fctsim import scheduler_for_scale
    from repro.net.kernel import _ckernel, compiled_available, engine_classes

    if not compiled_available():
        raise ShippingConfigError("the compiled kernel (repro.net.kernel._ckernel) does not import")
    if not Path(_ckernel.__file__).resolve().is_relative_to(src.resolve()):
        raise ShippingConfigError(f"kernel loaded from {_ckernel.__file__}, not from the fresh build")
    classes = engine_classes()
    sim = classes.Simulator()
    schedulers = {scale: scheduler_for_scale(scale) for scale in ("ci", "default")}
    if classes.name != "c" or sim.scheduler != "heap" or set(schedulers.values()) != {"heap"}:
        raise ShippingConfigError(
            f"engine in effect is kernel={classes.name} scheduler={sim.scheduler} "
            f"(per scale: {schedulers}); the shipping engine is kernel=c scheduler=heap"
        )
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "kernel": classes.name,
        "scheduler": sim.scheduler,
        "coalesce": sim.coalesce,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_digest": (src.parent / "stamp").read_text()[:16],
    }


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        src = build(root)
        env = shipping_env(src)
        os.environ.update(env)
        sys.path.insert(0, str(src))
        config = check_engine(src, root)
        sys.path.insert(0, str(here))
        import workloads

        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        if not set(names) <= set(workloads.WORKLOADS):
            raise BenchError(
                f"unknown workload {args.workload!r}; known: all, {', '.join(workloads.WORKLOADS)}"
            )
        reference = json.loads((here / "reference.json").read_text())
    except BenchError as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    out = root / ".bench_build" / "perfbench"
    summaries = {}
    for name in names:
        result = workloads.run(
            name, args.seed, args.seconds, bool(args.trace), reference,
            out / "runs" / f"{name}-{args.seed}-{os.getpid()}", env,
        )
        for problem in result.problems:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        summaries[name] = result.summary()
        (out / "reports").mkdir(parents=True, exist_ok=True)
        (out / "reports" / f"{name}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(
                {"workload": name, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "config": config, **summaries[name],
                 "samples": result.samples, "spans": result.spans},
                indent=1,
            )
        )
    print("config " + json.dumps(config, sort_keys=True))
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        for name, summary in summaries.items():
            print(f"{name} " + json.dumps(summary))
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, summary in summaries.items()
                for metric, value in summary["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
