"""One module per paper table/figure: the reproduction harness.

Each ``figXX_*`` module exposes a ``run(...)`` function returning plain
data (rows/series) plus a ``format_rows`` helper; the ``benchmarks/``
directory wraps them in pytest-benchmark targets that print the same
rows/series the paper reports. README's "Scale profiles" section maps
each profile to the paper's configurations.

Scale knobs: packet-level experiments default to reduced scale (Python is
~10^3x slower than htsim); set ``REPRO_SCALE=paper`` in the environment to
run closer to paper scale where feasible.
"""

from . import (
    ablations,
    fig01_distributions,
    fig04_path_lengths,
    fig06_timing,
    fig07_datamining,
    fig08_shuffle,
    fig09_websearch,
    fig10_mixed,
    fig11_dynamic,
    fig11_faults,
    fig12_cost_sensitivity,
    fig13_prototype,
    fig14_cycle_scaling,
    fig16_path_scaling,
    fig17_spectral,
    fig18_failure_paths,
    table1_state,
    table2_costs,
)

__all__ = [
    "ablations",
    "fig01_distributions",
    "fig04_path_lengths",
    "fig06_timing",
    "fig07_datamining",
    "fig08_shuffle",
    "fig09_websearch",
    "fig10_mixed",
    "fig11_dynamic",
    "fig11_faults",
    "fig12_cost_sensitivity",
    "fig13_prototype",
    "fig14_cycle_scaling",
    "fig16_path_scaling",
    "fig17_spectral",
    "fig18_failure_paths",
    "table1_state",
    "table2_costs",
]
