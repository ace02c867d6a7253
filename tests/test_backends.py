"""Tests for the real-backend layer (repro.relational.backends).

The contract under test: a backend is a *target* one builds and
``cross_validate`` the one comparison one calls — the simulated engine
runs first and stays the oracle, SQLite is the witness: its rows must
align with the oracle's, its wall clock is measured, and nothing a
request returns, charges or caches depends on whether it was asked.
"""

import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import QUERY_1, QUERY_2
from repro.common.errors import BackendMismatchError
from repro.core.partition import enumerate_partitions
from repro.core.silkroute import SilkRoute
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.relational.algebra import (
    ColumnRef,
    Comparison,
    Filter,
    Literal,
    Project,
    ProjectItem,
    Scan,
    Sort,
)
from repro.relational.backends import (
    SqliteBackend,
    cross_validate,
)
from repro.relational.connection import Connection
from repro.relational.database import Database
from repro.relational.engine import CostModel
from repro.relational.schema import Column, DatabaseSchema, TableSchema
from repro.relational.sqltext import render_sql
from repro.relational.types import SqlType


@pytest.fixture()
def sqlite_backend(tiny_db):
    backend = SqliteBackend(tiny_db)
    yield backend
    backend.close()


@pytest.fixture()
def conn(tiny_db):
    """A fresh connection per test — backend experiments must not leak
    into the session-scoped ``tiny_conn``."""
    return Connection(tiny_db, CostModel())


class _Spec:
    """What ``cross_validate`` reads of a stream spec, for bare plans."""

    def __init__(self, plan, label="s"):
        self.plan, self.sql, self.label = plan, render_sql(plan), label


def mirror_count(backend, table_name):
    """How many rows the SQLite mirror holds for ``table_name``."""
    table = backend.database.schema.table(table_name)
    rows, _ = backend.execute_sql(Scan(table, "t"), f"SELECT * FROM {table_name} t")
    return len(rows)


def region_spec(db):
    return _Spec(Sort(Scan(db.schema.table("Region"), "r"), ["r.regionkey"]))


class TestSqliteMirror:
    def test_row_counts_match(self, tiny_db, sqlite_backend):
        for name in tiny_db.schema.table_names:
            assert mirror_count(sqlite_backend, name) == len(
                tiny_db.table(name)
            )

    def test_simple_scan_rows_match(self, tiny_db, conn, sqlite_backend):
        plan = Sort(Scan(tiny_db.schema.table("Region"), "r"),
                    ["r.regionkey"])
        oracle = conn.engine.execute(plan).rows
        rows, wall_ms = sqlite_backend.execute_sql(plan, render_sql(plan))
        assert rows == oracle
        assert wall_ms >= 0.0

    def test_dates_round_trip_typed(self, tiny_db, conn, sqlite_backend):
        import datetime

        plan = Sort(
            Project(
                Scan(tiny_db.schema.table("Orders"), "o"),
                [ProjectItem(ColumnRef("o.orderkey"), "okey"),
                 ProjectItem(ColumnRef("o.date"), "odate")],
            ),
            ["okey"],
        )
        rows, _ = sqlite_backend.execute_sql(plan, render_sql(plan))
        assert rows == conn.engine.execute(plan).rows
        assert all(isinstance(row[1], datetime.date) for row in rows)

    def test_mutation_triggers_reload(self, sqlite_backend):
        # A private database: the shared fixture must stay pristine.
        from repro.tpch.generator import TpchGenerator, TpchScale

        db = TpchGenerator(
            scale=TpchScale(suppliers=2, parts=2, customers=2, orders=2),
            seed=7,
        ).generate()
        backend = SqliteBackend(db)
        try:
            before = mirror_count(backend, "Region")
            db.insert("Region", 99, "ATLANTIS")
            assert mirror_count(backend, "Region") == before + 1
        finally:
            backend.close()

    def test_db_path_creates_file(self, tiny_db, tmp_path):
        path = tmp_path / "mirror.db"
        backend = SqliteBackend(tiny_db, db_path=str(path))
        try:
            assert mirror_count(backend, "Nation") == len(
                tiny_db.table("Nation")
            )
        finally:
            backend.close()
        assert path.exists() and path.stat().st_size > 0

    def test_close_is_idempotent_and_reopens(self, tiny_db):
        backend = SqliteBackend(tiny_db)
        assert mirror_count(backend, "Region") > 0
        backend.close()
        backend.close()
        # Lazy reopen on next use.
        assert mirror_count(backend, "Region") > 0
        backend.close()


class TestConnectionIntegration:
    """``cross_validate`` beside a connection: the oracle side is the
    connection's engine, and the connection never learns of the check."""

    def test_rows_and_timings_identical(self, conn, q1_tree, tiny_db,
                                        sqlite_backend):
        gen = SqlGenerator(q1_tree, tiny_db.schema)
        specs = gen.streams_for_partition(
            list(enumerate_partitions(q1_tree))[0]
        )
        plain = [
            conn.execute(spec.plan, sql=spec.sql, label=spec.label)
            for spec in specs
        ]
        checked = cross_validate(conn.engine, specs, sqlite_backend)
        assert [spec for spec, _, _ in checked] == specs
        for stream, (spec, oracle, walls) in zip(plain, checked):
            assert oracle.rows == list(stream)
            assert oracle.server_ms == stream.server_ms
            assert len(walls) == 1 and walls[0] > 0.0
            # ... and the connection answers exactly as before the check.
            again = conn.execute(spec.plan, sql=spec.sql, label=spec.label)
            assert list(again) == list(stream)
            assert again.server_ms == stream.server_ms
            assert again.transfer_ms == stream.transfer_ms

    def test_repeats_measure_one_wall_each(self, conn, tiny_db):
        calls = []

        class CountingBackend(SqliteBackend):
            def execute_sql(self, plan, sql):
                calls.append(sql)
                return super().execute_sql(plan, sql)

        backend = CountingBackend(tiny_db)
        spec = region_spec(tiny_db)
        [(_, _, walls)] = cross_validate(conn.engine, [spec], backend,
                                         repeats=3)
        assert len(walls) == len(calls) == 3
        [(_, _, walls)] = cross_validate(conn.engine, [spec], backend,
                                         repeats=0)
        assert len(walls) == 1      # never fewer than the validation pass
        backend.close()

    def test_missing_rows_raise_mismatch(self, conn, tiny_db):
        class LyingBackend(SqliteBackend):
            def execute_sql(self, plan, sql):
                rows, wall_ms = super().execute_sql(plan, sql)
                return rows[1:], wall_ms

        backend = LyingBackend(tiny_db)
        spec = region_spec(tiny_db)
        with pytest.raises(BackendMismatchError) as info:
            cross_validate(conn.engine, [spec], backend)
        assert info.value.backend == "sqlite"
        assert info.value.stream_label == spec.label
        assert info.value.sql == spec.sql
        backend.close()

    def test_wrong_order_raises_mismatch(self, conn, tiny_db):
        class ShuffledBackend(SqliteBackend):
            def execute_sql(self, plan, sql):
                rows, wall_ms = super().execute_sql(plan, sql)
                return list(reversed(rows)), wall_ms

        backend = ShuffledBackend(tiny_db)
        with pytest.raises(BackendMismatchError) as info:
            cross_validate(conn.engine, [region_spec(tiny_db)], backend)
        assert "order" in str(info.value).lower()
        backend.close()

    def test_only_the_first_run_is_aligned(self, conn, tiny_db):
        """Later repeats are wall samples: a backend that lies from its
        second answer on is not caught, one that lies first is."""
        class LateLiar(SqliteBackend):
            runs = 0

            def execute_sql(self, plan, sql):
                rows, wall_ms = super().execute_sql(plan, sql)
                self.runs += 1
                return (rows if self.runs == 1 else rows[1:]), wall_ms

        backend = LateLiar(tiny_db)
        cross_validate(conn.engine, [region_spec(tiny_db)], backend,
                       repeats=3)
        with pytest.raises(BackendMismatchError):
            cross_validate(conn.engine, [region_spec(tiny_db)], backend)
        backend.close()


class TestOptionsAndSession:
    def test_session_materialize_with_backend(self, tiny_db, sqlite_backend):
        from repro.session import Session

        session = Session(Connection(tiny_db, CostModel()))
        before = session.materialize(QUERY_1, "fully-partitioned")
        specs = session.view(QUERY_1).specs("fully-partitioned")
        checked = cross_validate(
            session.connection.engine, specs, sqlite_backend
        )
        # The specs are the ones the session executed, stream for stream,
        # and the oracle side replays what it served.
        assert [s.sql for s in specs] == [
            s.sql for s in before.report.streams
        ]
        assert [oracle.server_ms for _, oracle, _ in checked] == [
            s.server_ms for s in before.report.streams
        ]
        after = session.materialize(QUERY_1, "fully-partitioned")
        assert after.xml == before.xml
        assert after.report.query_ms == before.report.query_ms


def _views(tiny_db, engine="batch"):
    silk = SilkRoute(Connection(tiny_db, CostModel(), engine=engine))
    return {
        "q1": silk.define_view(QUERY_1),
        "q2": silk.define_view(QUERY_2),
    }


class TestCrossEngineByteIdentity:
    """Hypothesis-random partitions of both query families serve the same
    bytes on both execution engines, and every stream behind them aligns
    with real SQLite."""

    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_partition_byte_identity(self, tiny_db, sqlite_backend,
                                            data):
        query = data.draw(st.sampled_from(["q1", "q2"]))
        views = {mode: _views(tiny_db, mode)[query]
                 for mode in ("tuple", "batch")}
        partitions = list(enumerate_partitions(views["batch"].tree))
        partition = partitions[
            data.draw(st.integers(0, len(partitions) - 1))
        ]
        style = data.draw(st.sampled_from([
            PlanStyle.OUTER_JOIN, PlanStyle.OUTER_UNION,
        ]))
        served = {
            mode: view.materialize(partition, style=style, workers=3)
            for mode, view in views.items()
        }
        assert served["tuple"].xml == served["batch"].xml
        for mode, view in views.items():
            checked = cross_validate(
                view.silkroute.connection.engine,
                view.specs(partition, style=style), sqlite_backend,
            )
            assert [oracle.server_ms for _, oracle, _ in checked] == [
                stream.server_ms for stream in served[mode].report.streams
            ]
            assert served[mode].report.query_ms == sum(
                oracle.server_ms for _, oracle, _ in checked
            )

    def test_streaming_path_byte_identity(self, tiny_db, sqlite_backend):
        for view in _views(tiny_db).values():
            plain = view.materialize("fully-partitioned")
            sink = io.StringIO()
            streamed = view.materialize_to(sink, "fully-partitioned")
            assert sink.getvalue() == plain.xml
            checked = cross_validate(
                view.silkroute.connection.engine,
                view.specs("fully-partitioned"), sqlite_backend,
            )
            assert [len(oracle.rows) for _, oracle, _ in checked] == [
                stream.rows for stream in streamed.report.streams
            ]

    def test_replica_pool_with_backend(self, tiny_db, sqlite_backend):
        from repro.relational.resilience import ReplicaPool, Resilience

        view = _views(tiny_db)["q1"]
        plain = view.materialize("fully-partitioned", workers=2)
        replicas = ReplicaPool.from_connection(view.silkroute.connection, 2)
        pooled = view.materialize(
            "fully-partitioned", workers=2,
            resilience=Resilience(replicas=replicas),
        )
        assert pooled.xml == plain.xml
        # Every replica's engine is an oracle SQLite agrees with.
        specs = view.specs("fully-partitioned")
        for replica in replicas.connections:
            cross_validate(replica.engine, specs, sqlite_backend)


RESERVED_ROWS = [
    (1, "alpha", "x'y"),
    (2, "beta", None),
    (3, "o'brien", "quote''quote"),
]


def _reserved_db():
    """A schema whose identifiers are all SQL reserved words — the
    quoting gauntlet for generated text on a real parser."""
    schema = DatabaseSchema(
        tables=[
            TableSchema(
                "order",
                [
                    Column("key", SqlType.INTEGER),
                    Column("from", SqlType.VARCHAR),
                    Column("select", SqlType.VARCHAR, nullable=True),
                ],
                key=["key"],
            ),
        ],
    )
    db = Database(schema)
    for row in RESERVED_ROWS:
        db.insert("order", *row)
    return db


class TestReservedWordIdentifiers:
    def test_rendered_sql_quotes_reserved_words(self):
        db = _reserved_db()
        plan = Sort(Scan(db.schema.table("order"), "o"), ["o.key"])
        sql = render_sql(plan)
        assert '"order"' in sql
        assert '"from"' in sql
        assert '"select"' in sql

    def test_executes_identically_on_sqlite(self):
        db = _reserved_db()
        connection = Connection(db, CostModel())
        plan = Sort(
            Project(
                Filter(
                    Scan(db.schema.table("order"), "o"),
                    Comparison("!=", ColumnRef("o.from"), Literal("beta")),
                ),
                [ProjectItem(ColumnRef("o.key"), "key"),
                 ProjectItem(ColumnRef("o.select"), "select")],
            ),
            ["key"],
        )
        backend = SqliteBackend(db)
        [(_, oracle, _)] = cross_validate(
            connection.engine, [_Spec(plan)], backend
        )
        backend.close()
        assert oracle.rows == list(connection.execute(plan))
        assert [row[0] for row in oracle.rows] == [1, 3]
