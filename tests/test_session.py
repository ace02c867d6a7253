"""The :class:`repro.Session` facade and its :class:`QueryResult`.

The contract under test: every Session method is a thin veneer over the
existing machinery — byte-identical XML and identical simulated timings
to calling :class:`~repro.core.silkroute.XmlView` directly — with one
result type across materialize/explain/sweep/mutate, and
``Session.sweep`` is ``repro.bench.sweep.sweep_partitions`` plus that
result type.
"""

import io

import pytest

from repro import (
    QueryResult,
    Session,
    apply_delta,
    fully_partitioned,
    unified_partition,
)
from repro.bench.queries import QUERY_1
from repro.bench.sweep import sweep_partitions
from repro.core.options import ExecutionOptions
from repro.core.silkroute import SilkRoute
from repro.tpch.generator import TpchGenerator, TpchScale

TINY = TpchScale(suppliers=8, parts=16, customers=10, orders=40)


def fresh_db(seed=42):
    """A private mutable database (the session-scoped fixtures are
    shared, so mutation tests build their own)."""
    return TpchGenerator(scale=TINY, seed=seed).generate()


@pytest.fixture()
def session(tiny_conn, tiny_estimator):
    return Session(tiny_conn, estimator=tiny_estimator)


class TestConstruction:
    def test_wraps_a_connection(self, tiny_conn, session):
        assert session.connection is tiny_conn
        assert session.database is tiny_conn.database

    def test_wraps_a_bare_database(self):
        db = fresh_db()
        session = Session(db)
        assert session.database is db
        assert session.materialize(QUERY_1).xml

    def test_wraps_an_existing_silkroute(self, tiny_conn, tiny_estimator):
        silk = SilkRoute(tiny_conn, estimator=tiny_estimator)
        session = Session(silk)
        assert session.silkroute is silk

    def test_view_is_cached_per_rxl_text(self, session):
        assert session.view(QUERY_1) is session.view(QUERY_1)

    def test_document_cache_byte_budget_is_wired(self, tiny_conn,
                                                 tiny_estimator):
        session = Session(tiny_conn, estimator=tiny_estimator,
                          document_cache_bytes=123)
        assert session.view(QUERY_1).document_cache.max_bytes == 123


class TestMaterialize:
    def test_matches_direct_xmlview(self, tiny_conn, tiny_estimator, session):
        direct = SilkRoute(tiny_conn, estimator=tiny_estimator) \
            .define_view(QUERY_1) \
            .materialize("unified", root_tag="suppliers", indent=2)
        result = session.materialize(QUERY_1, "unified",
                                     root_tag="suppliers", indent=2)
        assert isinstance(result, QueryResult)
        assert result.xml == direct.xml
        assert result.report.query_ms == direct.report.query_ms
        assert result.report.transfer_ms == direct.report.transfer_ms

    def test_result_carries_report_and_stats(self, session):
        result = session.materialize(QUERY_1, "fully-partitioned")
        assert result.report.n_streams > 1
        assert result.query_ms == result.report.query_ms
        assert result.transfer_ms == result.report.transfer_ms
        assert "plan_cache" in result.stats
        assert "document_cache" in result.stats
        assert "splice_cache" in result.stats

    def test_keyword_overrides_win_over_session_options(self, tiny_conn,
                                                        tiny_estimator):
        session = Session(tiny_conn, estimator=tiny_estimator,
                          options=ExecutionOptions(workers=1))
        result = session.materialize(QUERY_1, "fully-partitioned", workers=3)
        assert result.report.workers == 3

    def test_session_options_are_the_default(self, tiny_conn, tiny_estimator):
        session = Session(tiny_conn, estimator=tiny_estimator,
                          options=ExecutionOptions(workers=2))
        result = session.materialize(QUERY_1, "fully-partitioned")
        assert result.report.workers == 2

    def test_materialize_to_streams_the_same_bytes(self, session):
        whole = session.materialize(QUERY_1, "unified", indent=2)
        sink = io.StringIO()
        streamed = session.materialize_to(QUERY_1, sink, "unified", indent=2)
        assert streamed.xml is None
        assert sink.getvalue() == whole.xml
        assert streamed.report.query_ms == whole.report.query_ms


class TestExplain:
    def test_sql_matches_direct_explain(self, session):
        view = session.view(QUERY_1)
        result = session.explain(QUERY_1, "unified")
        assert result.sql == tuple(view.explain("unified"))
        assert len(result.sql) == 1
        assert result.xml is None and result.report is None


class TestSweep:
    def test_sweep_returns_the_sweep_result(self, session):
        view = session.view(QUERY_1)
        partitions = [unified_partition(view.tree),
                      fully_partitioned(view.tree)]
        result = session.sweep(QUERY_1, partitions=partitions)
        assert len(result.sweep.timings) == 2
        assert "sweep_cache" in result.stats

    def test_module_level_sweep_matches_session_sweep(
            self, session, q1_tree, schema, tiny_conn):
        partitions = [unified_partition(q1_tree)]
        old = sweep_partitions(q1_tree, schema, tiny_conn,
                               partitions=partitions)
        new = session.sweep(QUERY_1, partitions=[
            unified_partition(session.view(QUERY_1).tree)])
        assert [t.query_ms for t in old.timings] == \
               [t.query_ms for t in new.sweep.timings]


class TestMutate:
    def test_mutate_bumps_generation_and_reports_rows(self):
        session = Session(fresh_db())
        before = session.database.table("Nation").version
        result = session.mutate("Nation", op="insert", rows=2, seed=3)
        assert result.mutated == 2
        assert result.table == "Nation"
        assert result.stats["generation"] > before

    def test_repeated_request_id_applies_once_without_a_wal(self):
        session = Session(fresh_db())
        first = session.mutate("Nation", op="insert", rows=2, seed=3,
                               request_id="rq-1")
        assert "deduplicated" not in first.stats
        rows = len(session.database.table("Nation"))
        again = session.mutate("Nation", op="insert", rows=2, seed=3,
                               request_id="rq-1")
        assert again.stats["deduplicated"] is True
        assert again.mutated == first.mutated == 2
        assert again.stats["generation"] == first.stats["generation"]
        assert len(session.database.table("Nation")) == rows
        # No id, or a new one, applies.
        session.mutate("Nation", op="insert", rows=1, seed=4)
        session.mutate("Nation", op="insert", rows=1, seed=5,
                       request_id="rq-2")
        assert len(session.database.table("Nation")) == rows + 2

    def test_incremental_matches_cold_oracle(self):
        session = Session(fresh_db())
        session.materialize(QUERY_1, "unified")
        session.mutate("Supplier", op="update", rows=2, seed=1)
        incremental = session.materialize(QUERY_1, "unified")

        cold = Session(fresh_db(), cache=False)
        apply_delta(cold.database, "Supplier", op="update", rows=2, seed=1)
        oracle = cold.materialize(QUERY_1, "unified")
        assert incremental.xml == oracle.xml
        assert incremental.report.query_ms == oracle.report.query_ms

    def test_apply_delta_roundtrip(self):
        db = fresh_db()
        n = len(db.table("Nation"))
        assert apply_delta(db, "Nation", op="insert", rows=2, seed=0) == 2
        assert len(db.table("Nation")) == n + 2
        assert apply_delta(db, "Nation", op="delete", rows=2, seed=0) == 2
        assert len(db.table("Nation")) == n
        assert apply_delta(db, "Nation", op="update", rows=1, seed=0) == 1

    def test_apply_delta_refuses_unknown_op(self):
        with pytest.raises(ValueError, match="unknown mutation op"):
            apply_delta(fresh_db(), "Nation", op="upsert")

    def test_cli_private_alias_still_importable(self):
        from repro.cli import _apply_delta

        assert _apply_delta is apply_delta


class TestSharedEstimator:
    """Sessions that bring no estimator share their database's, one per
    cost model; one given explicitly is used as it is."""

    def test_two_sessions_over_one_database_share_one(self):
        from repro.relational.connection import Connection
        from repro.relational.engine import CostModel
        from repro.relational.estimator import CostEstimator

        db = fresh_db()
        model = CostModel()
        first = Session(db)
        second = Session(Connection(db, model))
        estimator = first.silkroute.estimator
        assert second.silkroute.estimator is estimator
        assert SilkRoute(Connection(db, model)).estimator is estimator
        assert estimator is CostEstimator.shared(db, model)
        assert Session(fresh_db()).silkroute.estimator is not estimator
        other = CostModel(startup_ms=model.startup_ms + 1.0)
        assert CostEstimator.shared(db, other) is not estimator

    def test_a_second_session_plans_from_the_first_ones_answers(self):
        db = fresh_db()
        sessions = Session(db), Session(db)
        first = sessions[0].view(QUERY_1).greedy_plan()
        estimates = sessions[0].silkroute.estimator.cache
        misses = estimates.stats().misses
        second = sessions[1].view(QUERY_1).greedy_plan()
        assert sessions[1].silkroute.estimator.cache is estimates
        assert (second.mandatory, second.optional) == (
            first.mandatory, first.optional)
        assert second.oracle_requests == first.oracle_requests > 0
        assert estimates.stats().misses == misses

    def test_an_explicit_estimator_is_kept(self, tiny_conn, tiny_estimator):
        session = Session(tiny_conn, estimator=tiny_estimator)
        assert session.silkroute.estimator is tiny_estimator
        assert SilkRoute(tiny_conn, estimator=tiny_estimator).estimator \
            is tiny_estimator

    def test_a_dropped_database_takes_its_estimates_with_it(self):
        import gc
        import weakref

        db = fresh_db()
        session = Session(db)
        session.materialize(QUERY_1)
        estimates = weakref.ref(session.silkroute.estimator.cache)
        gone = weakref.ref(db)
        del db, session
        gc.collect()
        assert gone() is None and estimates() is None

    def test_threads_get_the_same_estimator(self):
        import threading

        from repro.relational.engine import CostModel
        from repro.relational.estimator import CostEstimator

        db, model = fresh_db(), CostModel()
        got = []
        threads = [threading.Thread(
            target=lambda: got.append(CostEstimator.shared(db, model)))
            for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(got) == 4 and len({id(e) for e in got}) == 1
