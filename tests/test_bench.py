"""Tests for the experiment harness (repro.bench)."""

import pytest

from repro.core.partition import (
    Partition,
    fully_partitioned,
    unified_partition,
)
from repro.core.sqlgen import PlanStyle
from repro.bench.queries import QUERY_1, QUERY_2, load_view
from repro.bench.report import format_series, format_sweep_table, summarize_sweep
from repro.bench.sweep import (
    PlanTiming,
    SweepResult,
    run_single_partition,
    sweep_partitions,
)


class TestRunSinglePartition:
    def test_timing_fields(self, q1_tree, tiny_db, tiny_conn):
        timing = run_single_partition(
            q1_tree, tiny_db.schema, tiny_conn, fully_partitioned(q1_tree)
        )
        assert timing.n_streams == 10
        assert timing.query_ms > 0
        assert timing.transfer_ms > 0
        assert timing.total_ms == timing.query_ms + timing.transfer_ms
        assert not timing.timed_out

    def test_timeout_detected(self, q1_tree, tiny_db, tiny_conn):
        timing = run_single_partition(
            q1_tree, tiny_db.schema, tiny_conn, unified_partition(q1_tree),
            budget_ms=0.001,
        )
        assert timing.timed_out
        assert timing.total_ms is None


class TestSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self, q1_tree, tiny_db, tiny_conn):
        partitions = [
            fully_partitioned(q1_tree),
            Partition([(1, 1)]),
            Partition([(1, 1), (1, 2), (1, 3)]),
            Partition([(1, 4), (1, 4, 1)]),
        ]
        return sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, partitions=partitions,
            reduce=True,
        )

    def test_all_completed(self, small_sweep):
        assert len(small_sweep.completed()) == 4
        assert small_sweep.timed_out() == []

    def test_fastest(self, small_sweep):
        fastest = small_sweep.fastest(2)
        assert len(fastest) == 2
        assert fastest[0].query_ms <= fastest[1].query_ms

    def test_by_stream_count(self, small_sweep):
        series = small_sweep.by_stream_count()
        assert set(series) == {10, 9, 7, 8}
        assert all(vs == sorted(vs) for vs in series.values())

    def test_timing_for(self, small_sweep, q1_tree):
        timing = small_sweep.timing_for(fully_partitioned(q1_tree))
        assert timing.n_streams == 10
        with pytest.raises(KeyError):
            small_sweep.timing_for(Partition([(1, 4, 2)]))

    def test_progress_callback(self, q1_tree, tiny_db, tiny_conn):
        calls = []
        sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn,
            partitions=[fully_partitioned(q1_tree)],
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 1)]


class TestReporting:
    def test_format_series(self, q1_tree, tiny_db, tiny_conn):
        sweep = sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn,
            partitions=[fully_partitioned(q1_tree), Partition([(1, 1)])],
        )
        text = format_series(sweep, "query_ms", title="demo")
        assert "demo" in text
        assert "streams" in text

    def test_format_series_reports_timeouts(self):
        sweep = SweepResult(
            timings=[
                PlanTiming(None, 2, 10.0, 1.0),
                PlanTiming(None, 3, timed_out=True),
            ],
            style=PlanStyle.OUTER_JOIN,
            reduced=False,
        )
        assert "timed out" in format_series(sweep)

    def test_format_sweep_table(self):
        text = format_sweep_table(
            [["a", 1.5, None], ["b", 2.0, 3.0]], ["name", "x", "y"]
        )
        assert "timeout" in text
        assert "name" in text

    def test_summarize_sweep(self, q1_tree, tiny_db, tiny_conn):
        partitions = [fully_partitioned(q1_tree), Partition([(1, 1)])]
        sweep = sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, partitions=partitions
        )
        summary = summarize_sweep(
            sweep, {"fully": fully_partitioned(q1_tree)}
        )
        assert summary["optimal"][1] == 1.0
        assert summary["fully"][1] >= 1.0


class TestWorkloadDefinitions:
    def test_query_trees_have_512_plans(self, tiny_db):
        for text in (QUERY_1, QUERY_2):
            tree = load_view(text, tiny_db.schema)
            assert len(tree.edges) == 9


class TestCachedAndParallelSweep:
    @pytest.fixture(scope="class")
    def sample(self, q1_tree):
        return [
            unified_partition(q1_tree),
            fully_partitioned(q1_tree),
            Partition([(1, 1)]),
            Partition([(1, 1), (1, 2), (1, 3)]),
            Partition([(1, 4), (1, 4, 1)]),
            Partition([(1, 4), (1, 4, 2)]),
        ]

    def test_cached_sweep_timings_bit_identical(
        self, q1_tree, tiny_db, tiny_conn, sample
    ):
        kwargs = dict(partitions=sample, reduce=True, budget_ms=50.0)
        uncached = sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, cache=False, **kwargs
        )
        cached = sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, cache=True, **kwargs
        )
        assert cached.timings == uncached.timings
        assert uncached.cache_stats is None
        assert cached.cache_stats.hits > 0  # subtree queries recur

    def test_width_leaves_timings_unchanged(
        self, q1_tree, tiny_db, tiny_conn, sample
    ):
        """A sweep's timings are per-stream sums: the dispatch width
        (``workers``) moves none of them."""
        kwargs = dict(partitions=sample, reduce=True, budget_ms=50.0)
        narrow = sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, cache=False, **kwargs
        )
        wide = sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, cache=False, workers=3,
            **kwargs
        )
        assert wide.timings == narrow.timings  # same values, same order

    def test_workers_with_shared_cache(self, q1_tree, tiny_db, tiny_conn, sample):
        from repro.relational.cache import PlanResultCache

        uncached = sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, cache=False,
            partitions=sample, reduce=True,
        )
        shared = PlanResultCache()
        first = sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, cache=shared, workers=2,
            partitions=sample, reduce=True,
        )
        second = sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, cache=shared, workers=2,
            partitions=sample, reduce=True,
        )
        assert first.timings == uncached.timings
        assert second.timings == uncached.timings
        # The second sweep found every plan already cached.
        assert second.cache_stats.misses == first.cache_stats.misses

    def test_sweep_restores_engine_cache(self, q1_tree, tiny_db, tiny_conn):
        before = tiny_conn.engine.cache
        sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn,
            partitions=[fully_partitioned(q1_tree)],
        )
        assert tiny_conn.engine.cache is before
