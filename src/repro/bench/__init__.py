"""Experiment harness: the paper's workloads and sweep/figure machinery."""

from repro.bench.queries import QUERY_1, QUERY_2, SUPPLIER_DTD, load_view
from repro.bench.sweep import (
    PlanTiming,
    SweepResult,
    sweep_partitions,
    run_single_partition,
)
from repro.bench.report import (
    format_sweep_table,
    format_series,
    summarize_sweep,
)
from repro.bench.figures import scatter_plot
from repro.bench.experiments import EXPERIMENTS, Experiment, format_registry

__all__ = [
    "QUERY_1",
    "QUERY_2",
    "SUPPLIER_DTD",
    "load_view",
    "PlanTiming",
    "SweepResult",
    "sweep_partitions",
    "run_single_partition",
    "format_sweep_table",
    "format_series",
    "summarize_sweep",
    "scatter_plot",
    "EXPERIMENTS",
    "Experiment",
    "format_registry",
]
