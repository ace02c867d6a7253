"""Wall-clock smoke bench: batch vs tuple engine on a real sweep.

Unlike every other benchmark (which reports *simulated* milliseconds), this
one measures the harness itself: how long the exhaustive Query 1 /
Configuration A sweep takes under the tuple interpreter, the vectorized
batch engine, and the batch engine with the cross-plan
:class:`~repro.relational.cache.PlanResultCache` — verifying along the way
that neither the engine mode nor the cache moves a single simulated
millisecond: every recorded :class:`~repro.bench.sweep.PlanTiming` must be
bit-identical across all three runs.

Wall seconds include SQL generation and dispatch; the *engine-bound*
seconds (accumulated around :meth:`QueryEngine.execute
<repro.relational.engine.QueryEngine.execute>`) isolate the evaluation
work the engine rewrite targets.  The measured speedups are written to
``benchmarks/results/wallclock_sweep_engines.txt``.

Each mode runs against a freshly built configuration so no per-engine
cache (compiled plans, node results, row-width estimates) warmed by an
earlier mode can flatter a later one.
"""

import time

from repro.bench.queries import QUERY_1, load_view
from repro.bench.sweep import sweep_partitions
from repro.core.silkroute import SilkRoute
from repro.relational.connection import Connection
from repro.relational.engine import QueryEngine
from repro.tpch.configs import CONFIG_A, build_configuration



def timed_sweep(engine_mode, cache):
    """Run the Q1/A non-reduced sweep on a fresh configuration; return
    ``(sweep, wall_seconds, engine_seconds)`` where engine_seconds is the
    wall time spent inside ``QueryEngine.execute``."""
    db, _, _ = build_configuration(CONFIG_A)
    conn = Connection(db, CONFIG_A.cost_model, CONFIG_A.transfer_model,
                      engine=engine_mode)
    tree = load_view(QUERY_1, db.schema)
    engine_s = [0.0]
    original = QueryEngine.execute

    def instrumented(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            engine_s[0] += time.perf_counter() - start

    QueryEngine.execute = instrumented
    try:
        start = time.perf_counter()
        sweep = sweep_partitions(
            tree,
            db.schema,
            conn,
            reduce=False,
            budget_ms=CONFIG_A.subquery_budget_ms,
            cache=cache,
        )
        wall_s = time.perf_counter() - start
    finally:
        QueryEngine.execute = original
    return sweep, wall_s, engine_s[0]


def test_engine_sweep_speedup(report_writer):
    tuple_sweep, tuple_wall, tuple_engine = timed_sweep("tuple", False)
    batch_sweep, batch_wall, batch_engine = timed_sweep("batch", False)
    cached_sweep, cached_wall, cached_engine = timed_sweep("batch", True)

    # Neither the engine mode nor the cache may move a single simulated
    # millisecond.
    assert batch_sweep.timings == tuple_sweep.timings
    assert cached_sweep.timings == tuple_sweep.timings
    assert len(tuple_sweep.timings) == 512

    engine_speedup = (
        tuple_engine / batch_engine if batch_engine else float("inf")
    )
    wall_speedup = tuple_wall / batch_wall if batch_wall else float("inf")
    cache_speedup = (
        tuple_wall / cached_wall if cached_wall else float("inf")
    )
    stats = cached_sweep.cache_stats
    report_writer(
        "wallclock_sweep_engines",
        "\n".join(
            [
                "Q1 / Config A non-reduced 512-plan sweep (wall-clock)",
                f"  tuple  uncached: {tuple_wall:8.2f} s wall, "
                f"{tuple_engine:8.2f} s engine",
                f"  batch  uncached: {batch_wall:8.2f} s wall, "
                f"{batch_engine:8.2f} s engine",
                f"  batch  cached:   {cached_wall:8.2f} s wall, "
                f"{cached_engine:8.2f} s engine   ({stats})",
                f"  engine-bound speedup: {engine_speedup:.2f}x   "
                f"wall speedup: {wall_speedup:.2f}x",
            ]
        ),
    )
    # Loose bounds: the acceptance target is >=5x engine-bound on a quiet
    # machine; keep the assertions tolerant of loaded CI runners.
    assert engine_speedup >= 3.0
    assert wall_speedup >= 1.5


def test_concurrent_dispatch_makespan(config_a, report_writer):
    """Concurrent dispatch of one multi-stream plan, on the simulated
    clock.

    At width 1 a plan's simulated elapsed query time is the *sum* of its
    subquery server times; with one worker per stream it is their *max*
    (plus nothing — the dispatcher has no simulated overhead).  The
    speedup is deterministic: it only depends on the plan's server-time
    profile, so the assertion is exact.  No wall-clock figure is
    published: both runs execute the same subqueries one after another,
    and the second is faster only because the first warmed the engine's
    caches.
    """
    _, db, conn, _ = config_a
    view = SilkRoute(conn).define_view(QUERY_1)
    partition = view.fully_partitioned()

    seq = view.materialize(partition, reduce=False).report
    workers = seq.n_streams
    con = view.materialize(partition, reduce=False, workers=workers).report

    max_server = max(s.server_ms for s in seq.streams)
    speedup = seq.elapsed_query_ms / con.elapsed_query_ms
    report_writer(
        "wallclock_concurrent_dispatch",
        "\n".join(
            [
                f"Q1 / Config A fully-partitioned plan, {seq.n_streams} "
                f"streams, {workers} workers",
                f"  sequential elapsed: {seq.elapsed_query_ms:10.2f} ms "
                "(simulated)",
                f"  concurrent elapsed: {con.elapsed_query_ms:10.2f} ms "
                "(simulated)",
                f"  max stream server:  {max_server:10.2f} ms   "
                f"speedup {speedup:.2f}x",
            ]
        ),
    )
    # Per-stream results and simulated sums are identical either way.
    assert con.query_ms == seq.query_ms
    assert con.transfer_ms == seq.transfer_ms
    # With a worker per stream the makespan IS the slowest subquery.
    assert con.elapsed_query_ms == max_server
    assert speedup >= 1.5
