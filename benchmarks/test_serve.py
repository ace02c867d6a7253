"""Serving-layer bench: sustained QPS and tail latency of the
multi-tenant query service under concurrency, faults, and replica chaos.

Eight client threads hammer one :class:`~repro.serve.Server` over the
Configuration-A database with a mixed workload — mostly repeated Query 1
materializations (the coalescing / document-cache sweet spot), a slice
of fully-partitioned plans, a slice routed through a 3-replica pool with
seeded fault injection and hedged requests, and periodic mutations that
invalidate the dependent cache entries live.

Identity is the hard constraint: after the storm, the server's execution
log is replayed serially on a fresh database and every document must
match byte-for-byte with identical simulated timings — zero diffs.  The
wall-clock QPS and latency percentiles land in
``benchmarks/results/serve_storm.txt``.
"""

import threading
import time

from repro.bench.queries import QUERY_1, QUERY_2
from repro.core.options import ExecutionOptions
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.resilience import Resilience
from repro.serve import Server
from repro.session import Session
from repro.tpch.configs import CONFIG_A, build_configuration


CLIENTS = 8
REQUESTS_PER_CLIENT = 40

#: Every 3-replica chaos request retries around one seeded-faulty replica
#: and hedges slow streams; the XML must stay byte-identical regardless.
CHAOS_OPTIONS = ExecutionOptions(
    resilience=Resilience(
        retry=RetryPolicy(max_attempts=3),
        faults=FaultPolicy(seed=17, error_rate=0.05),
        replicas=3,
        hedge_ms=50.0,
    ),
)


def build_server():
    _, connection, estimator = build_configuration(CONFIG_A)
    return Server(
        session=Session(connection, estimator=estimator),
        queries={"q1": QUERY_1, "q2": QUERY_2},
    )


def run_client(server, ci, live, errors, barrier):
    try:
        barrier.wait(60)
        for i in range(REQUESTS_PER_CLIENT):
            rid = f"c{ci}-{i}"
            slot = (ci + i) % 10
            if slot == 9:
                # Periodic writes keep the incremental-maintenance path
                # hot: each one moves a generation and invalidates the
                # dependent plan/splice/document entries mid-storm.
                live[rid] = server.mutate(
                    ("Supplier", "Customer")[ci % 2], op="update",
                    rows=5, seed=ci * 1000 + i,
                    tenant=f"t{ci}", request_id=rid,
                )
            elif slot == 8:
                live[rid] = server.query(
                    "q1", tenant=f"t{ci}", request_id=rid,
                    partition="unified", options=CHAOS_OPTIONS,
                )
            elif slot >= 6:
                live[rid] = server.query(
                    "q1", tenant=f"t{ci}", request_id=rid,
                    partition="fully-partitioned",
                )
            else:
                live[rid] = server.query(
                    "q1", tenant=f"t{ci}", request_id=rid,
                    partition="unified",
                )
    except Exception as exc:  # pragma: no cover - surfaced by the assert
        errors.append((ci, exc))


def test_serve_sustained_load(report_writer):
    server = build_server()
    # Warm the caches the way a steady-state service runs.
    server.query("q1", partition="unified")

    live = {}
    errors = []
    barrier = threading.Barrier(CLIENTS)
    threads = [
        threading.Thread(target=run_client,
                         args=(server, ci, live, errors, barrier))
        for ci in range(CLIENTS)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)
    wall_s = time.perf_counter() - start
    assert not any(t.is_alive() for t in threads), "serving storm hung"
    assert not errors, errors

    stats = server.stats()
    total = CLIENTS * REQUESTS_PER_CLIENT
    assert stats["requests"] == total + 1  # the warmup request
    qps = total / wall_s

    # The serial oracle: replay the log on a fresh database and diff
    # every document and simulated timing against what the live clients
    # actually received.
    _, replay_conn, replay_estimator = build_configuration(CONFIG_A)
    replay_start = time.perf_counter()
    replayed = server.replay(
        session=Session(replay_conn, estimator=replay_estimator),
    )
    replay_s = time.perf_counter() - replay_start
    log = server.execution_log()
    byte_diffs = timing_diffs = 0
    for entry, theirs in zip(log[1:], replayed[1:]):  # skip the warmup
        mine = live[entry["request_id"]]
        if entry["kind"] == "query":
            if theirs.xml != mine.xml:
                byte_diffs += 1
            if (theirs.report.query_ms != mine.report.query_ms
                    or theirs.report.transfer_ms != mine.report.transfer_ms):
                timing_diffs += 1
        elif theirs.mutated != mine.mutated:
            byte_diffs += 1
    assert byte_diffs == 0
    assert timing_diffs == 0

    latency = stats["latency_ms"]
    # Loose in-test floor; the results file records the real figures.
    assert qps > 10.0

    report_writer(
        "serve_storm",
        f"{CLIENTS} clients x {REQUESTS_PER_CLIENT} requests in "
        f"{wall_s:.2f}s = {qps:.0f} QPS sustained "
        f"({stats['mutations']} live mutations, "
        f"{stats['coalesced']} coalesced)\n"
        f"latency p50 {latency['p50']:.1f}ms / p95 {latency['p95']:.1f}ms "
        f"/ p99 {latency['p99']:.1f}ms\n"
        f"serial replay of {len(log)} log entries in {replay_s:.2f}s: "
        f"{byte_diffs} byte diffs, {timing_diffs} timing diffs",
    )
