"""Chaos soak for the replica serving layer (randomized, deterministic).

Two scenarios over Query 1 / Configuration A, both asserting the
load-bearing invariants (a blocking step of CI's ``tests`` job):

* **hard-down soak** — a 3-replica pool whose primary replica fails every
  attempt, with light random faults on the healthy pair.  Every seeded
  run must complete the query through failover with zero user-visible
  errors and produce the byte-identical document with the fault-free
  simulated figures.
* **slow-replica hedging** — a 2-replica pool whose primary carries heavy
  injected connection latency.  Hedged runs must cut the p99 simulated
  makespan versus the unhedged runs of the same seeds.

Per-seed counters land in ``BENCH_replicas.json`` at the repository
root.  Everything runs on the simulated clock, so the file holds no wall
time and a run reproduces it to the digit: CI diffs it.
"""

import json
import pathlib

from repro.bench.queries import QUERY_1
from repro.core.silkroute import SilkRoute
from repro.relational.connection import Connection
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.resilience import ReplicaPool, Resilience

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SOAK_SEEDS = tuple(range(8))
HEDGE_SEEDS = tuple(range(12))


def _fresh_view(db, template_conn, est):
    connection = Connection(
        db, template_conn.engine.cost_model,
        transfer_model=template_conn.transfer_model,
    )
    silk = SilkRoute(connection, estimator=est)
    return connection, silk.define_view(QUERY_1)


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def test_replica_chaos_soak(config_a, report_writer):
    config, db, conn, est = config_a

    _, clean_view = _fresh_view(db, conn, est)
    clean = clean_view.materialize()

    # -- scenario 1: one replica hard down, light faults elsewhere --------
    soak_cells = []
    for seed in SOAK_SEEDS:
        connection, view = _fresh_view(db, conn, est)
        hard_down = FaultPolicy(seed=seed, error_rate=1.0)
        flaky = [FaultPolicy(seed=f"{seed}|h{i}", error_rate=0.1)
                 for i in (1, 2)]
        result = view.materialize(workers=4, resilience=Resilience(
            replicas=ReplicaPool.from_connection(connection, 3),
            faults=[hard_down, *flaky], retry=RetryPolicy(max_attempts=6),
            hedge_ms=50.0,
        ))
        report = result.report
        # Zero user-visible errors: the hard-down replica is routed
        # around, the document and the paper's figures are untouched.
        assert result.xml == clean.xml
        assert report.query_ms == clean.report.query_ms
        assert report.transfer_ms == clean.report.transfer_ms
        assert report.resilience.failovers > 0
        assert all(s.resilience.replica != 0 for s in report.streams)
        soak_cells.append({
            "seed": seed,
            "streams": report.n_streams,
            "attempts": report.resilience.attempts,
            "faults_injected": report.resilience.faults,
            "failovers": report.resilience.failovers,
            "hedges": report.resilience.hedges,
            "hedge_wins": report.resilience.hedge_wins,
            "byte_identical": result.xml == clean.xml,
        })

    # -- scenario 2: hedging against a slow primary ----------------------
    hedged_ms, unhedged_ms = [], []
    hedge_cells = []
    for seed in HEDGE_SEEDS:
        runs = {}
        for mode, hedge in (("unhedged", None), ("hedged", 25.0)):
            connection, view = _fresh_view(db, conn, est)
            result = view.materialize(resilience=Resilience(
                replicas=ReplicaPool.from_connection(connection, 2),
                faults=[FaultPolicy(seed=seed, latency_ms=400.0),
                        FaultPolicy(seed=f"{seed}|fast", latency_ms=5.0)],
                retry=RetryPolicy(max_attempts=4), hedge_ms=hedge,
            ))
            assert result.xml == clean.xml
            runs[mode] = result.report
        hedged_ms.append(runs["hedged"].elapsed_total_ms)
        unhedged_ms.append(runs["unhedged"].elapsed_total_ms)
        hedge_cells.append({
            "seed": seed,
            "hedged_elapsed_ms": round(runs["hedged"].elapsed_total_ms, 1),
            "unhedged_elapsed_ms": round(
                runs["unhedged"].elapsed_total_ms, 1
            ),
            "hedges": runs["hedged"].resilience.hedges,
            "hedge_wins": runs["hedged"].resilience.hedge_wins,
        })

    p99_hedged = _percentile(hedged_ms, 0.99)
    p99_unhedged = _percentile(unhedged_ms, 0.99)
    assert p99_hedged < p99_unhedged

    payload = {
        "experiment": "q1_config_a_replica_chaos_soak",
        "hard_down_soak": {
            "replicas": 3,
            "permanently_failing": 0,
            "cells": soak_cells,
            "all_byte_identical": all(
                c["byte_identical"] for c in soak_cells
            ),
        },
        "slow_replica_hedging": {
            "replicas": 2,
            "hedge_ms": 25.0,
            "p50_hedged_ms": round(_percentile(hedged_ms, 0.5), 1),
            "p50_unhedged_ms": round(_percentile(unhedged_ms, 0.5), 1),
            "p99_hedged_ms": round(p99_hedged, 1),
            "p99_unhedged_ms": round(p99_unhedged, 1),
            "p99_speedup": round(p99_unhedged / p99_hedged, 2),
            "cells": hedge_cells,
        },
    }
    (REPO_ROOT / "BENCH_replicas.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        f"hard-down soak: {len(soak_cells)} seeds, "
        f"{sum(c['failovers'] for c in soak_cells)} failovers, "
        f"byte-identical {all(c['byte_identical'] for c in soak_cells)}",
        f"hedging p99: {round(p99_unhedged, 1)}ms -> "
        f"{round(p99_hedged, 1)}ms "
        f"({round(p99_unhedged / p99_hedged, 2)}x)",
    ]
    report_writer("replica_chaos_soak", "\n".join(lines))
