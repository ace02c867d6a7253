"""Per-operator engine micro-benchmarks: batch vs tuple throughput.

Each case builds one algebra plan that stresses a single operator over the
Configuration A TPC-H sample and measures wall-clock rows/second in three
modes:

* ``tuple`` — the row-at-a-time interpreter (fresh engine per repetition);
* ``batch cold`` — the vectorized engine with empty caches (fresh engine
  per repetition: pays plan compilation and the kernels' real row work);
* ``batch warm`` — the vectorized engine re-executing on one engine, where
  the node-result cache serves every sub-plan and only the charge
  accounting runs.

Identity is asserted on every case: rows, simulated ``server_ms``, and
``rows_examined`` must match the tuple engine bit-for-bit.  Throughput
numbers go to ``BENCH_engine.json`` at the repository root (a
non-blocking CI artifact); the perf assertions here are
deliberately loose — regressions are tracked by the committed JSON, not by
failing CI on a noisy runner.
"""

import json
import pathlib
import time

from repro.relational.algebra import (
    ColumnRef,
    Comparison,
    ConstantColumn,
    Distinct,
    Filter,
    InnerJoin,
    Literal,
    OuterUnion,
    Project,
    ProjectItem,
    Scan,
    Sort,
)
from repro.relational.engine import QueryEngine

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

COLD_REPS = 10
WARM_REPS = 50


def _operator_plans(schema):
    """One plan per operator label, each dominated by that operator."""
    lineitem = Scan(schema.table("LineItem"), "l")
    orders = Scan(schema.table("Orders"), "o")

    filtered = Filter(
        lineitem,
        Comparison(">", ColumnRef("l.qty"), Literal(10)),
    )
    projected = Project(
        lineitem,
        [
            ProjectItem(ColumnRef("l.orderkey"), "orderkey"),
            ProjectItem(ColumnRef("l.qty"), "qty"),
            ConstantColumn("tag", 1),
        ],
    )
    distinct = Distinct(
        Project(lineitem, [ProjectItem(ColumnRef("l.suppkey"), "suppkey")])
    )
    joined = InnerJoin(orders, lineitem, [("o.orderkey", "l.orderkey")])
    union = OuterUnion(
        [
            Project(orders, [ProjectItem(ColumnRef("o.orderkey"), "key")]),
            Project(
                lineitem, [ProjectItem(ColumnRef("l.orderkey"), "key")]
            ),
        ],
        distinct=True,
    )
    sort = Sort(lineitem, ["l.suppkey", "l.orderkey", "l.lno"])

    return {
        "scan": lineitem,
        "filter": filtered,
        "project": projected,
        "distinct": distinct,
        "join": joined,
        "union": union,
        "sort": sort,
    }


def _timed(make_engine, plan, reps, fresh_each):
    engine = make_engine()
    reference = engine.execute(plan)
    start = time.perf_counter()
    for _ in range(reps):
        if fresh_each:
            engine = make_engine()
        engine.execute(plan)
    elapsed = time.perf_counter() - start
    return reference, elapsed


def test_engine_micro(config_a, report_writer):
    _, db, _, _ = config_a
    plans = _operator_plans(db.schema)

    cases = {}
    lines = ["Per-operator throughput, rows examined / second"]
    for label, plan in plans.items():
        tuple_ref, tuple_s = _timed(
            lambda: QueryEngine(db, engine="tuple"), plan,
            COLD_REPS, fresh_each=True,
        )
        rows_per_exec = tuple_ref.rows_examined
        case = {
            "rows_examined": rows_per_exec,
            "tuple_rows_per_s": round(
                rows_per_exec * COLD_REPS / tuple_s
            ) if tuple_s else None,
        }
        lines.append(
            f"  {label:10s} tuple {case['tuple_rows_per_s'] or 0:>12,}"
        )

        def make_batch_engine():
            return QueryEngine(db, engine="batch")

        cold_ref, cold_s = _timed(
            make_batch_engine, plan, COLD_REPS, fresh_each=True
        )
        warm_ref, warm_s = _timed(
            make_batch_engine, plan, WARM_REPS, fresh_each=False
        )
        # Bit-identity, cold and warm.
        for result in (cold_ref, warm_ref):
            assert result.rows == tuple_ref.rows, label
            assert result.server_ms == tuple_ref.server_ms, label
            assert result.rows_examined == tuple_ref.rows_examined
        case["batch_cold_rows_per_s"] = (
            round(rows_per_exec * COLD_REPS / cold_s) if cold_s else None
        )
        case["batch_warm_rows_per_s"] = (
            round(rows_per_exec * WARM_REPS / warm_s) if warm_s else None
        )
        lines.append(
            f"  {label:10s} batch "
            f"cold {case['batch_cold_rows_per_s'] or 0:>12,}   "
            f"warm {case['batch_warm_rows_per_s'] or 0:>12,}"
        )
        cases[label] = case

    payload = {
        "experiment": "per_operator_engine_micro",
        "cold_reps": COLD_REPS,
        "warm_reps": WARM_REPS,
        "operators": cases,
    }
    (REPO_ROOT / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    report_writer("engine_micro", "\n".join(lines))

    # Loose sanity: warm batch execution (node-cache hits) must beat the
    # tuple interpreter on the expensive operators even on a loaded runner.
    for label in ("join", "sort", "distinct"):
        warm = cases[label]["batch_warm_rows_per_s"] or 0
        assert warm > (cases[label]["tuple_rows_per_s"] or 0), label
