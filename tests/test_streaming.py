"""Tests for the streaming execution pipeline (PR: streaming tentpole).

Three surfaces are covered:

* :meth:`XmlView.materialize_to` — the constant-memory path must produce
  byte-identical XML and a bit-identical report versus ``materialize()``,
  across queries, plan styles, partition strategies, reduction, and result
  cache warm/cold (property-based).
* :meth:`Connection.execute_iter` — cursors with the same rows and charges
  as the materializing path, in no more memory than the interpreter's.
* Dispatch width — ``materialize(workers=N)`` must be
  indistinguishable from the width-1 run except for the dispatch fields
  (``workers`` and the makespans), including under timeouts and a shared
  result cache.
"""

import gc
import io
import math
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import TimeoutExceeded
from repro.core.silkroute import SilkRoute
from repro.core.sqlgen import PlanStyle
from repro.relational.cache import PlanResultCache
from repro.relational.connection import Connection
from repro.relational.engine import ENGINE_MODES, CostModel
from repro.bench.queries import QUERY_1, QUERY_2
from repro.tpch.generator import TpchGenerator, TpchScale
from repro.xmlgen.serializer import CountingSink


@pytest.fixture(scope="module")
def views(tiny_db):
    """Views per engine mode, uncached ("cold") or over one result cache
    both modes' connections share ("warm" — examples re-populate it).  The
    reference side of every comparison here is ``materialize`` on the
    batch kernels; the streamed side runs cursors in both modes."""

    def make(cache):
        views = {}
        for mode in ENGINE_MODES:
            silk = SilkRoute(
                Connection(tiny_db, CostModel(), engine=mode), cache=cache
            )
            views[mode] = {
                "Q1": silk.define_view(QUERY_1),
                "Q2": silk.define_view(QUERY_2),
            }
        return views

    return {"cold": make(False), "warm": make(PlanResultCache())}


@pytest.fixture(scope="module")
def q1_view(tiny_db):
    silk = SilkRoute(Connection(tiny_db, CostModel()))
    return silk.define_view(QUERY_1)


def assert_same_stream_reports(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert (ra.label, ra.rows, ra.server_ms, ra.transfer_ms, ra.sql) == (
            rb.label, rb.rows, rb.server_ms, rb.transfer_ms, rb.sql
        )


class TestMaterializeToProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        query=st.sampled_from(["Q1", "Q2"]),
        style=st.sampled_from([PlanStyle.OUTER_JOIN, PlanStyle.OUTER_UNION]),
        strategy=st.sampled_from(["unified", "fully-partitioned", None]),
        reduce=st.booleans(),
        cache=st.sampled_from(["cold", "warm"]),
        engine=st.sampled_from(ENGINE_MODES),
    )
    def test_byte_identical_and_report_identical(
        self, views, query, style, strategy, reduce, cache, engine
    ):
        view = views[cache]["batch"][query]
        if cache == "warm":
            # Populate the result cache so the streaming run replays hits.
            view.materialize(strategy, style=style, reduce=reduce)
        ref = view.materialize(strategy, style=style, reduce=reduce)
        sink = io.StringIO()
        out = views[cache][engine][query].materialize_to(
            sink, strategy, style=style, reduce=reduce
        )
        assert sink.getvalue() == ref.xml
        assert out.xml is None
        assert out.report.query_ms == ref.report.query_ms
        assert out.report.transfer_ms == ref.report.transfer_ms
        assert out.report.total_ms == ref.report.total_ms
        assert_same_stream_reports(ref.report.streams, out.report.streams)


class TestExecuteIter:
    def test_lazy_rows_match_batch(self, tiny_conn, q1_view, tiny_db):
        from repro.core.sqlgen import SqlGenerator

        generator = SqlGenerator(q1_view.tree, tiny_db.schema)
        specs = generator.streams_for_partition(q1_view.unified_partition())
        for spec in specs:
            batch = tiny_conn.execute(spec.plan, compact_rows=spec.compact)
            cursor = tiny_conn.execute_iter(
                spec.plan, compact_rows=spec.compact
            )
            assert not cursor.exhausted
            assert list(cursor) == list(batch)
            assert cursor.exhausted
            assert cursor.rows_read == len(batch)
            assert cursor.server_ms == batch.server_ms
            assert cursor.transfer_ms == batch.transfer_ms

    def test_charges_accrue_incrementally(self, tiny_conn, q1_view, tiny_db):
        from repro.core.sqlgen import SqlGenerator

        generator = SqlGenerator(q1_view.tree, tiny_db.schema)
        [spec] = generator.streams_for_partition(q1_view.unified_partition())
        cursor = tiny_conn.execute_iter(spec.plan, compact_rows=spec.compact)
        rows = iter(cursor)
        next(rows)
        mid_transfer = cursor.transfer_ms
        assert mid_transfer > 0
        for _ in rows:
            pass
        assert cursor.transfer_ms > mid_transfer

    def test_budget_raises_with_label(self, tiny_conn, q1_view, tiny_db):
        """One opening protocol in both modes: ``startup`` is charged when
        the cursor is opened, the rest from ``next()``; either way the
        error names the stream."""
        from repro.core.sqlgen import SqlGenerator

        generator = SqlGenerator(q1_view.tree, tiny_db.schema)
        [spec] = generator.streams_for_partition(q1_view.unified_partition())
        startup_ms = tiny_conn.engine.cost_model.startup_ms
        for engine in ENGINE_MODES:
            conn = Connection(tiny_db, tiny_conn.engine.cost_model,
                              engine=engine)
            with pytest.raises(TimeoutExceeded) as at_open:
                conn.execute_iter(
                    spec.plan, budget_ms=0.001, label=spec.label,
                )
            assert at_open.value.stream_label == spec.label
            cursor = conn.execute_iter(
                spec.plan, budget_ms=startup_ms + 0.001, label=spec.label,
            )
            assert cursor.server_ms == startup_ms
            with pytest.raises(TimeoutExceeded) as at_next:
                next(iter(cursor))
            assert at_next.value.stream_label == spec.label


class TestDispatchWidth:
    def test_identical_across_widths(self, q1_view):
        part = q1_view.fully_partitioned()
        first = q1_view.materialize(part, reduce=False)
        wide = q1_view.materialize(part, reduce=False, workers=4)
        one, four = first.report, wide.report
        assert [s.sql for s in one.streams] == [s.sql for s in four.streams]
        assert first.xml == wide.xml
        assert_same_stream_reports(one.streams, four.streams)
        assert one.query_ms == four.query_ms
        assert one.transfer_ms == four.transfer_ms
        assert one.workers == 1 and four.workers == 4
        # The width-1 makespan is the sum; a wider one approaches the max.
        assert one.elapsed_query_ms == one.query_ms
        assert four.elapsed_query_ms < one.elapsed_query_ms
        assert four.elapsed_query_ms >= max(
            s.server_ms for s in one.streams
        )

    def test_stream_report_sql_populated(self, q1_view):
        report = q1_view.materialize(
            q1_view.fully_partitioned(), reduce=False
        ).report
        for stream_report in report.streams:
            assert stream_report.sql.lstrip().upper().startswith("SELECT")

    def test_timeout_independent_of_width(self, q1_view):
        part = q1_view.fully_partitioned()
        clean = q1_view.materialize(part, reduce=False).report
        times = sorted(s.server_ms for s in clean.streams)
        budget = (times[-1] + times[-2]) / 2
        reports = []
        for workers in (None, 4):
            with pytest.raises(TimeoutExceeded) as timeout:
                q1_view.materialize(part, reduce=False, budget_ms=budget,
                                    workers=workers)
            reports.append(timeout.value.report)
        r1, r2 = reports
        assert r1.timed_out and r2.timed_out
        assert r1.timed_out_label == r2.timed_out_label
        assert [x.label for x in r1.streams] == [x.label for x in r2.streams]
        assert math.isnan(r1.total_ms) and math.isnan(r2.total_ms)

    def test_materialize_width_same_document(self, q1_view):
        a = q1_view.materialize("fully-partitioned", reduce=False)
        b = q1_view.materialize("fully-partitioned", reduce=False, workers=4)
        assert a.xml == b.xml
        assert a.report.query_ms == b.report.query_ms

    def test_materialize_timeout_carries_partial_report(self, q1_view):
        with pytest.raises(TimeoutExceeded) as exc_info:
            q1_view.materialize("unified", budget_ms=0.001)
        exc = exc_info.value
        assert exc.stream_label is not None
        assert exc.report is not None
        assert exc.report.timed_out
        assert exc.report.timed_out_label == exc.stream_label
        assert math.isnan(exc.report.total_ms)

    def test_cache_fills_once_at_any_width(self, tiny_db):
        cache = PlanResultCache()
        silk = SilkRoute(Connection(tiny_db, CostModel()), cache=cache)
        view = silk.define_view(QUERY_1)
        part = view.fully_partitioned()
        cold = view.materialize(part, reduce=False, workers=4).report
        misses_after_cold = cache.stats().misses
        assert misses_after_cold == cold.n_streams
        warm = view.materialize(part, reduce=False, workers=4).report
        assert cache.stats().misses == misses_after_cold
        assert cache.stats().hits >= warm.n_streams
        assert_same_stream_reports(cold.streams, warm.streams)


class TestMaterializeToMemory:
    def test_default_engine_peaks_no_higher_than_the_interpreter(self):
        """``materialize_to`` on the default engine — cursors on the batch
        kernels, nothing cached — must not need more heap than on the
        row-at-a-time reference (``engine="tuple"``): fully-partitioned Q1
        at scale 4, each on a fresh connection, into a discarding sink.
        tracemalloc peaks are deterministic, so this can block."""
        db = TpchGenerator(scale=TpchScale().scaled(4), seed=42).generate()
        peaks = {}
        for engine in ("batch", "tuple"):
            view = SilkRoute(
                Connection(db, CostModel(), engine=engine)
            ).define_view(QUERY_1)
            gc.collect()
            tracemalloc.start()
            try:
                view.materialize_to(
                    CountingSink(), "fully-partitioned", reduce=False
                )
                peaks[engine] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["batch"] <= peaks["tuple"], peaks


class TestMaterializeToTimeout:
    def test_partial_report_attached(self, q1_view):
        sink = io.StringIO()
        with pytest.raises(TimeoutExceeded) as exc_info:
            q1_view.materialize_to(sink, "unified", budget_ms=0.001)
        exc = exc_info.value
        assert exc.report is not None
        assert exc.report.timed_out
        assert math.isnan(exc.report.total_ms)
