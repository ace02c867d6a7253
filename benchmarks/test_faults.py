"""Seeded fault-injection soak: resilience under a matrix of seeds and
error rates.

For each (seed, error_rate) cell the Query 1 / Configuration A plan space
is swept under a :class:`~repro.relational.faults.FaultPolicy` with the
default :class:`~repro.relational.faults.RetryPolicy`, and the recommended
greedy plan is materialized.  The soak asserts the two load-bearing
invariants (a blocking step of CI's ``tests`` job):

* every plan that completes under faults reports the *same* simulated
  ``query_ms``/``transfer_ms`` as the fault-free sweep — resilience
  overhead never leaks into the paper's figures;
* every materialization that survives its faults is byte-identical to the
  fault-free document.

The per-cell counters (failures, faults injected, retries, simulated
backoff) are written to ``BENCH_faults.json`` at the repository root.
Everything runs on the simulated clock, so the file holds no wall time and
a run reproduces it to the digit: CI diffs it.
"""

import json
import pathlib

from repro.bench.queries import QUERY_1
from repro.bench.sweep import sweep_partitions
from repro.core.silkroute import SilkRoute
from repro.relational.cache import PlanResultCache
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.common.errors import TransientConnectionError

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SEEDS = (0, 1, 2)
ERROR_RATES = (0.1, 0.3)


def test_fault_soak(config_a, trees_a, report_writer):
    config, db, conn, est = config_a
    tree = trees_a["Q1"]
    retry = RetryPolicy()

    baseline = sweep_partitions(
        tree, db.schema, conn, budget_ms=config.subquery_budget_ms,
        cache=PlanResultCache(),
    )
    by_partition = {t.partition: t for t in baseline.timings}

    silk = SilkRoute(conn, estimator=est)
    view = silk.define_view(QUERY_1)
    clean = view.materialize()

    cells = []
    for seed in SEEDS:
        for rate in ERROR_RATES:
            faults = FaultPolicy(seed=seed, error_rate=rate)
            sweep = sweep_partitions(
                tree, db.schema, conn,
                budget_ms=config.subquery_budget_ms,
                cache=PlanResultCache(),
                retry=retry, faults=faults,
            )
            # Completed plans must carry the fault-free simulated figures.
            for timing in sweep.completed():
                reference = by_partition[timing.partition]
                assert timing.query_ms == reference.query_ms
                assert timing.transfer_ms == reference.transfer_ms

            degraded = 0
            try:
                result = view.materialize(retry=retry, faults=faults)
                assert result.xml == clean.xml
                materialize_ok = True
                degraded = len(result.report.degraded_streams)
            except TransientConnectionError:
                materialize_ok = False

            cells.append({
                "seed": seed,
                "error_rate": rate,
                "plans": len(sweep.timings),
                "failed_plans": len(sweep.failed()),
                "faults_injected": sum(
                    t.faults_injected for t in sweep.timings
                ),
                "retries": sum(t.retries for t in sweep.timings),
                "backoff_ms": round(
                    sum(t.backoff_ms for t in sweep.timings), 1
                ),
                "materialize_byte_identical": materialize_ok,
                "degraded_streams": degraded,
            })

    payload = {
        "experiment": "q1_config_a_fault_soak",
        "retry": {
            "max_attempts": retry.max_attempts,
            "base_ms": retry.base_ms,
            "multiplier": retry.multiplier,
        },
        "cells": cells,
    }
    (REPO_ROOT / "BENCH_faults.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        f"seed={c['seed']} rate={c['error_rate']}: "
        f"{c['failed_plans']}/{c['plans']} plans failed, "
        f"{c['faults_injected']} faults, {c['retries']} retries, "
        f"{c['backoff_ms']}ms backoff, "
        f"materialize {'ok' if c['materialize_byte_identical'] else 'FAILED'}"
        + (f" ({c['degraded_streams']} degraded)"
           if c["degraded_streams"] else "")
        for c in cells
    ]
    report_writer("fault_soak", "\n".join(lines))

    # The soak must actually have exercised the machinery.
    assert any(c["faults_injected"] > 0 for c in cells)
    assert any(c["materialize_byte_identical"] for c in cells)
