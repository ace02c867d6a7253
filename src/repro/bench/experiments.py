"""The experiment registry: DESIGN.md's per-experiment index as code.

Each entry maps a paper artifact (table or figure) to the workload, the
modules that implement the pieces, the benchmark that regenerates it, and
the paper's headline numbers — so ``python -m repro experiments`` (and the
tests) can enumerate exactly what the reproduction covers.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    """One reproducible table or figure."""

    id: str
    artifact: str
    workload: str
    modules: tuple
    bench: str
    paper_result: str


EXPERIMENTS = (
    Experiment(
        id="E1",
        artifact="Sec. 2 timing table",
        workload="Query 1, Configuration B; fully partitioned vs best "
                 "greedy plan vs sorted outer-union",
        modules=("core.partition", "core.greedy", "core.sqlgen",
                 "relational.engine"),
        bench="benchmarks/test_sec2_table.py",
        paper_result="10 queries: 1837s/584s; 5: 592s/244s; 1: 2729s/1234s "
                     "(total/query) — the middle plan wins",
    ),
    Experiment(
        id="E2",
        artifact="Fig. 13(a)",
        workload="Query 1, Configuration A, all 512 plans, query-only "
                 "time, non-reduced",
        modules=("bench.sweep",),
        bench="benchmarks/test_fig13_query1.py::test_fig13a_query_time_nonreduced",
        paper_result="outer-union unified 1.16x optimal; fully partitioned "
                     "1.24x; 101 plans timed out",
    ),
    Experiment(
        id="E3",
        artifact="Fig. 13(b)",
        workload="Query 1, Configuration A, 512 plans, query-only time, "
                 "with view-tree reduction",
        modules=("core.reduction",),
        bench="benchmarks/test_fig13_query1.py::test_fig13b_query_time_reduced",
        paper_result="ten fastest reduced plans 2.5x faster; optimal "
                     "2.6-4.3x faster than the baselines",
    ),
    Experiment(
        id="E4",
        artifact="Fig. 13(c)",
        workload="Query 1, Configuration A, total time, reduced",
        modules=("relational.connection",),
        bench="benchmarks/test_fig13_query1.py::test_fig13c_total_time_reduced",
        paper_result="outer-union unified 4x optimal total; fully "
                     "partitioned 3x",
    ),
    Experiment(
        id="E5",
        artifact="Fig. 14(a,b,c)",
        workload="Query 2 (parallel * edges), Configuration A, 512 plans",
        modules=("bench.sweep",),
        bench="benchmarks/test_fig14_query2.py",
        paper_result="no timeouts; outer-union 1.21x (query, non-reduced) "
                     "and 4.8x (total, reduced); fully partitioned 1.41x / 3.7x",
    ),
    Experiment(
        id="E6",
        artifact="Fig. 15(a,b)",
        workload="Configuration B, greedy plan family vs unified "
                 "outer-union vs fully partitioned, reduced",
        modules=("core.greedy",),
        bench="benchmarks/test_fig15_config_b.py",
        paper_result="outer-union 5x/4.7x slower (query), 4.6x (total); "
                     "fully partitioned 2.4x/2.6x and 3.1x",
    ),
    Experiment(
        id="E7",
        artifact="Fig. 18(a-d)",
        workload="Greedy-selected mandatory/optional edges, Queries 1-2, "
                 "Configurations A-B, reduced and non-reduced",
        modules=("core.greedy",),
        bench="benchmarks/test_fig18_greedy_plans.py",
        paper_result="families of 32/16/8 plans corresponding directly to "
                     "the fastest measured plans",
    ),
    Experiment(
        id="E8",
        artifact="Table 1",
        workload="Configuration A (1 MB, slow server) and B (100 MB, "
                 "fast server) presets",
        modules=("tpch.configs",),
        bench="benchmarks/test_table1_configs.py",
        paper_result="two configurations; 5-minute subquery budget",
    ),
    Experiment(
        id="E9",
        artifact="Sec. 5.1 estimate-request counts",
        workload="genPlan oracle requests with component memoization",
        modules=("relational.estimator", "core.greedy"),
        bench="benchmarks/test_estimate_requests.py",
        paper_result="22 requests non-reduced, 25 reduced — far below the "
                     "81 worst case",
    ),
    Experiment(
        id="E10",
        artifact="Headline claims (abstract / Sec. 2)",
        workload="Optimal plan shape, 2.5-5x factors, reduction speedup, "
                 "Query-1-only timeouts",
        modules=("*",),
        bench="benchmarks/test_headline_claims.py",
        paper_result="optimal uses several queries; 2.5-5x faster than "
                     "both endpoints; Query 1: 101 timeouts, Query 2: none",
    ),
)


def format_registry():
    """The registry as a text table."""
    lines = []
    for entry in EXPERIMENTS:
        lines.append(f"{entry.id}: {entry.artifact}")
        lines.append(f"    workload: {entry.workload}")
        lines.append(f"    modules:  {', '.join(entry.modules)}")
        lines.append(f"    bench:    {entry.bench}")
        lines.append(f"    paper:    {entry.paper_result}")
    return "\n".join(lines)
