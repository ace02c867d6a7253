"""Tests for the experiment harness (repro.bench)."""

import contextlib
import gc
from types import FrameType, TracebackType

import pytest

from repro import Session
from repro.common.errors import StaleGenerationError
from repro.core.partition import (
    Partition,
    enumerate_partitions,
    fully_partitioned,
    unified_partition,
)
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.bench import sweep as sweep_module
from repro.bench.queries import QUERY_1, QUERY_2, load_view
from repro.bench.report import format_series, format_sweep_table, summarize_sweep
from repro.bench.sweep import (
    PlanTiming,
    SweepResult,
    run_single_partition,
    sweep_partitions,
)
from repro.obs import ObsOptions
from repro.relational.batch import Batch
from repro.relational.cache import BoundedCache
from repro.relational.connection import Connection, TransferModel
from repro.relational.database import synthesize_rows
from repro.relational.engine import CostModel
from repro.relational.faults import FaultPolicy, RetryPolicy
from repro.relational.resilience import ReplicaPool, Resilience
from repro.tpch.configs import CONFIG_A, build_database
from repro.tpch.generator import TpchGenerator
from tests.conftest import TINY_SCALE
from tests.test_xmlgen_golden import GOLDEN, PARTITIONS, fingerprint


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
        """The plans of a width-2 sweep share its price table; the next
        sweep starts with a table of its own."""
        uncached = sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, cache=False,
            partitions=sample, reduce=True,
        )
        first, second = (
            sweep_partitions(
                q1_tree, tiny_db.schema, tiny_conn, workers=2,
                partitions=sample, reduce=True,
            )
            for _ in range(2)
        )
        assert first.timings == uncached.timings
        assert second.timings == uncached.timings
        assert second.cache_stats == first.cache_stats
        assert first.cache_stats.hits > 0

    @pytest.mark.parametrize("cache", [True, False], ids=["table", "every"])
    def test_an_execution_inside_a_sweep_sees_its_own_caches(
            self, cache, q1_tree, tiny_db):
        """Nothing on the caller's engine changes while a sweep runs: an
        execution in ``progress`` returns the rows it returns outside
        the sweep, from the caller's own caches."""
        connection = Connection(tiny_db, CostModel())
        engine = connection.engine
        own = engine.cache, engine.results
        partitions = [unified_partition(q1_tree), fully_partitioned(q1_tree)]
        plan = SqlGenerator(q1_tree, tiny_db.schema).streams_for_partition(
            partitions[0])[0].plan
        outside = engine.execute(plan).rows
        inside = []

        def progress(done, total):
            assert (engine.cache, engine.results) == own
            inside.append(engine.execute(plan).rows)

        sweep_partitions(q1_tree, tiny_db.schema, connection,
                         partitions=partitions, cache=cache,
                         progress=progress)
        assert inside == [outside, outside] and type(outside) is list
        assert (engine.cache, engine.results) == own


class TestCostOnlySweep:
    """``cache=True`` prices each stream once, in the sweep's own table of
    costs: nothing a sweep reports can tell it from a run of every
    stream, and nothing on the caller's connection changes."""

    @pytest.fixture(scope="class")
    def config_a(self):
        database = build_database(CONFIG_A)
        return database, load_view(QUERY_1, database.schema)

    @staticmethod
    def connect(database, transfer_model=CONFIG_A.transfer_model):
        return Connection(database, CONFIG_A.cost_model, transfer_model)

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "obs"])
    def test_full_sweep_equals_uncached(self, config_a, traced):
        """All 512 plans of Query 1, non-reduced, the 112 timeouts
        included."""
        database, tree = config_a
        cached, uncached = (
            sweep_partitions(
                tree, database.schema, self.connect(database), cache=cache,
                budget_ms=CONFIG_A.subquery_budget_ms,
                obs=ObsOptions() if traced else None,
            )
            for cache in (True, False)
        )
        assert cached.timings == uncached.timings
        assert len(cached.timings) == 512 and len(cached.timed_out()) == 112
        assert cached.cache_stats.hits > 2000

    def test_entries_hold_costs_not_rows(self, q1_tree, tiny_db, tiny_conn,
                                         monkeypatch):
        tables = []

        def table(name):
            tables.append(BoundedCache(name))
            return tables[-1]

        monkeypatch.setattr(sweep_module, "BoundedCache", table)
        sweep_partitions(
            q1_tree, tiny_db.schema, tiny_conn, budget_ms=50.0,
            partitions=[unified_partition(q1_tree),
                        fully_partitioned(q1_tree)],
        )
        [prices] = tables
        entries = [entry for _, entry in prices.items()]
        assert {timed_out for _, _, timed_out in entries} == {True, False}
        for server_ms, transfer_ms, timed_out in entries:
            assert (type(server_ms), type(transfer_ms)) == (
                (type(None),) * 2 if timed_out else (float, float))

    def test_session_cache_is_set_aside(self, tiny_db):
        session = Session(Connection(tiny_db, CONFIG_A.cost_model))
        view = session.view(QUERY_1)
        own = session.silkroute.cache
        result = session.sweep(QUERY_1, partitions=[
            view.unified_partition(), view.fully_partitioned()])
        assert session.connection.cache is own
        assert len(own) == 0 and own.stats().requests == 0
        assert result.stats["sweep_cache"]["stores"] == 11

    def test_replicas_with_their_own_transfer_models(self, q1_tree, tiny_db):
        """A pool whose replicas bind rows at different costs: each sweep
        prices its streams under the replica they are routed to, and
        reports that replica's own transfer time.  (Only the attempt
        counts differ from a sweep of every stream: a priced stream is
        not dispatched again.)"""
        models = [TransferModel(), TransferModel(row_ms=1.0, byte_ms=0.02)]
        partitions = [unified_partition(q1_tree), fully_partitioned(q1_tree),
                      Partition([(1, 1)]), Partition([(1, 4), (1, 4, 1)])]

        def sweep(cache):
            pool = ReplicaPool([self.connect(tiny_db, model)
                                for model in models])
            timings = []
            # The first sweep runs on replica 1, the second on replica 0.
            for ailing in (0, 1):
                for replica, health in enumerate(pool.health):
                    health.consecutive_failures = int(replica == ailing)
                timings.append([
                    (t.query_ms, t.transfer_ms, t.timed_out, t.failed)
                    for t in sweep_partitions(
                        q1_tree, tiny_db.schema, pool.connections[0],
                        partitions=partitions, cache=cache,
                        resilience=Resilience(replicas=pool),
                    ).timings])
            assert timings[0] != timings[1]
            return timings

        assert sweep(True) == sweep(False)

    @pytest.mark.parametrize("partition", PARTITIONS, ids=str)
    def test_materialize_after_sweep_matches_golden(self, config_a, partition):
        database, _ = config_a
        session = Session(self.connect(database))
        view = session.view(QUERY_1)
        session.sweep(
            QUERY_1, budget_ms=CONFIG_A.subquery_budget_ms, reduce=True,
            partitions=[view.unified_partition(), view.fully_partitioned()],
        )
        xml = session.materialize(QUERY_1, partition).xml
        assert fingerprint(xml) == GOLDEN[("A", "q1", None)]


@contextlib.contextmanager
def collector(enabled):
    """Run the block with the cyclic collector on or off, then put back
    the state it had."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


class TestCollectorPause:
    """A sweep's plan loop leaves nothing for the cyclic collector, so it
    runs with the collector paused — and gives the caller's state back."""

    #: From here on, a 50 ms budget times out some of Q1's chained-``*``
    #: plans in both the 16- and the 64-plan window.
    START = 200

    @staticmethod
    def swept_garbage(sweep):
        """``sweep()``'s result and every object of a reference cycle it
        left unreachable (kept, not freed, under ``DEBUG_SAVEALL``)."""
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = sweep()
            gc.collect()
            return result, list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    @pytest.mark.parametrize("case", ["timeout", "failure", "obs"])
    def test_no_garbage_cycle_grows_with_the_plans(self, case, q1_tree,
                                                   tiny_db):
        """A timed-out plan, a stream that exhausts its retries and a
        traced sweep leave no cycle holding batches, frames or exceptions,
        and none whose size follows the plan count."""
        partitions = list(enumerate_partitions(q1_tree))
        counts = []
        for n in (16, 64):
            options = {
                "timeout": dict(budget_ms=50.0),
                "failure": dict(resilience=Resilience(
                    faults=FaultPolicy(seed=3, error_rate=0.3),
                    retry=RetryPolicy(max_attempts=2))),
                "obs": dict(budget_ms=50.0, obs=ObsOptions()),
            }[case]
            result, garbage = self.swept_garbage(lambda: sweep_partitions(
                q1_tree, tiny_db.schema, Connection(tiny_db, CostModel()),
                partitions=partitions[self.START:self.START + n], **options,
            ))
            assert result.timed_out() or result.failed()
            held = (Batch, FrameType, TracebackType, BaseException)
            assert [
                type(obj).__name__ for obj in garbage
                if isinstance(obj, held)
            ] == []
            counts.append(len(garbage))
            del garbage
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_paused_in_the_loop_and_restored(self, enabled, q1_tree, tiny_db,
                                             tiny_conn):
        seen = []
        with collector(enabled):
            sweep_partitions(
                q1_tree, tiny_db.schema, tiny_conn,
                partitions=[fully_partitioned(q1_tree), Partition([(1, 1)])],
                progress=lambda done, total: seen.append(gc.isenabled()),
            )
            assert gc.isenabled() is enabled
        assert seen == [False, False]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_restored_when_progress_raises(self, enabled, q1_tree, tiny_db,
                                           tiny_conn):
        def progress(done, total):
            raise RuntimeError("stop")

        with collector(enabled):
            with pytest.raises(RuntimeError, match="stop"):
                sweep_partitions(
                    q1_tree, tiny_db.schema, tiny_conn, progress=progress,
                    partitions=[fully_partitioned(q1_tree)],
                )
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_restored_on_a_write_mid_sweep(self, enabled):
        """A write made inside ``progress`` makes the next plan's dispatch
        raise ``StaleGenerationError``."""
        db = TpchGenerator(scale=TINY_SCALE, seed=42).generate()
        tree = load_view(QUERY_1, db.schema)

        def progress(done, total):
            [row] = synthesize_rows(db, "Supplier", 1, seed=done)
            db.insert("Supplier", *row)

        with collector(enabled):
            with pytest.raises(StaleGenerationError):
                sweep_partitions(
                    tree, db.schema, Connection(db, CostModel()),
                    progress=progress,
                    partitions=[fully_partitioned(tree),
                                Partition([(1, 1)])],
                )
            assert gc.isenabled() is enabled
