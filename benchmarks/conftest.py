"""Shared helpers for the per-figure benchmark harness.

Every benchmark runs its experiment once (``benchmark.pedantic`` with one
round — these are reproduction measurements, not micro-benchmarks), prints
the same rows/series the paper's table or figure reports, and asserts the
qualitative *shape* the paper claims (who wins, by roughly what factor).

Scale note: packet-level experiments run at reduced scale by default; see
README's "Scale profiles" section for the mapping to the paper's
configurations.
"""

from __future__ import annotations

from repro.scenarios import Runner

#: In-process, cache-free runner: a benchmark measurement times exactly the
#: scenario body, through the same registry + parameter binding as the CLI.
_RUNNER = Runner()


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_scenario(benchmark, name, **overrides):
    """Run registered scenario ``name`` once through the shared Runner path."""
    return run_once(benchmark, _RUNNER.execute, name, **overrides)


def emit(title: str, rows: list[str]) -> None:
    print(f"\n=== {title} ===")
    for row in rows:
        print(row)
