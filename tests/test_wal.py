"""Durability: the SQLite store, restarts, and exactly-once.

The load-bearing contracts:

* **commit, then keep** — a mutation that returns is in the store's
  file; one that fails validation, or whose transaction raises, is in
  neither the file nor the in-memory tables;
* **bit-identical restarts** — loading the file reconstructs table
  contents, row order (slot order, not key order), value types AND
  per-table generation counters exactly, so a restarted database serves
  byte-identical XML with identical simulated timings, on both engines
  and on SQLite itself (the store's own file);
* **a torn or damaged tail loses the last commit, whole** — SQLite's
  write-ahead file cut or corrupted inside its last commit restarts at
  the commit before it, rows, generations and request record together;
* **exactly-once** — a request id committed before a crash deduplicates
  after the restart, returning the recorded result.
"""

import datetime
import math
import os
import shutil
import sqlite3
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import QUERY_1
from repro.common.errors import SchemaError, WalError
from repro.relational.connection import Connection
from repro.relational.database import Database
from repro.relational.engine import CostModel
from repro.relational.schema import Column, DatabaseSchema, TableSchema
from repro.relational.store import STORE_FILE, Store
from repro.relational.types import SqlType
from repro.session import Session, apply_delta
from repro.tpch.generator import TpchGenerator, TpchScale

TINY = TpchScale(suppliers=6, parts=10, customers=8, orders=24)
WAL_FRAME_HEADER = 24     # SQLite's write-ahead file: per-frame header


def fresh_db(seed=42):
    return TpchGenerator(scale=TINY, seed=seed).generate()


def db_state(db):
    return (
        {name: list(t.rows) for name, t in db.tables.items()},
        db.table_generations(),
    )


@pytest.fixture
def wal_dir():
    path = tempfile.mkdtemp(prefix="wal-test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def attach_fresh(path, seed=42, database=None, **kwargs):
    db = database if database is not None else fresh_db(seed)
    store = Store(path, **kwargs)
    restored = store.attach(db)
    return db, store, restored


def crash_image(path, into):
    """Copy the store's files as a power cut would leave them: the
    database file and SQLite's write-ahead file, while the store is
    still open (closing it would fold the second into the first)."""
    os.makedirs(into, exist_ok=True)
    for suffix in ("", "-wal"):
        shutil.copyfile(os.path.join(path, STORE_FILE + suffix),
                        os.path.join(into, STORE_FILE + suffix))
    return os.path.join(into, STORE_FILE + "-wal")


def nation_names(path):
    """The Nation names a restart on ``path`` serves."""
    db, store, _ = attach_fresh(path)
    store.close()
    return {row[1] for row in db.table("Nation").rows}


class TestFraming:
    def test_record_roundtrip(self, wal_dir):
        """A row comes back type for type: an int and a float DECIMAL, a
        date, NULLs, in slot order."""
        db, store, _ = attach_fresh(wal_dir, database=Database(SCHEMA))
        rows = [(3, 2, datetime.date(1998, 1, 5), "b"),
                (1, 2.5, None, None),
                (2, None, datetime.date(1970, 1, 1), "")]
        for row in rows:
            db.insert("T", *row)
        store.close()
        restarted, store, restored = attach_fresh(
            wal_dir, database=Database(SCHEMA))
        assert restored == 3
        assert repr(restarted.table("T").rows) == repr(rows)
        store.close()

    def test_reader_stops_at_crc_mismatch(self, wal_dir):
        """A damaged frame in the middle of SQLite's write-ahead file
        ends it: the commits after it are unreachable too."""
        db, store, _ = attach_fresh(wal_dir)
        db.insert("Nation", 80, "N0", 0)
        size_after_first = os.path.getsize(store.file.parent
                                           / (STORE_FILE + "-wal"))
        db.insert("Nation", 81, "N1", 1)
        db.insert("Nation", 82, "N2", 2)
        image = os.path.join(wal_dir, "image")
        wal_file = crash_image(wal_dir, image)
        store.close()
        with open(wal_file, "r+b") as f:
            f.seek(size_after_first + WAL_FRAME_HEADER + 100)
            byte = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte[0] ^ 0xFF]))
        names = nation_names(image)
        assert "N0" in names and not {"N1", "N2"} & names

    def test_wrong_magic_is_an_error(self, wal_dir):
        with open(os.path.join(wal_dir, STORE_FILE), "wb") as f:
            f.write(b"NOTAWAL!" * 512)
        with pytest.raises(WalError):
            Store(wal_dir)


class TestLogThenApply:
    def test_mutations_survive_restart_bit_identically(self, wal_dir):
        db, store, restored = attach_fresh(wal_dir)
        assert restored is None  # cold start: the rows written, not read
        db.insert("Nation", 99, "Zigzag", 0)
        db.update("Nation", lambda row: row["nationkey"] == 99, {"name": "Zagzig"})
        db.delete("Nation", lambda row: row["nationkey"] == 99)
        db.insert("Nation", 98, "Kept", 1)
        rows, gens = db_state(db)
        store.close()

        db2, store2, restored2 = attach_fresh(wal_dir)
        assert db_state(db2) == (rows, gens)
        assert restored2 == db2.total_rows()
        store2.close()

    def test_rejected_mutation_never_reaches_the_log(self, wal_dir):
        db, store, _ = attach_fresh(wal_dir)
        key = db.table("Nation").rows[0][0]
        with pytest.raises(SchemaError):
            db.insert("Nation", key, "Duplicate", 0)  # key collision
        with pytest.raises(SchemaError):
            db.insert("Nation", 500, None, 0)  # NOT NULL name
        # The in-memory state is untouched (validation precedes both the
        # commit and the apply), and so is the file.
        assert db.table("Nation").version == fresh_db().table("Nation").version
        store.close()
        restarted, store, _ = attach_fresh(wal_dir)
        assert db_state(restarted) == db_state(fresh_db())
        store.close()

    def test_non_finite_decimal_is_refused_everywhere(self, wal_dir):
        """NaN in a DECIMAL column: refused by insert and update before
        anything is committed."""
        db, store, _ = attach_fresh(wal_dir)
        part = db.table("Part")
        state = db_state(db)
        key = part.rows[0][0]
        with pytest.raises(SchemaError):
            db.insert("Part", 900, "p900", "m", "b", 1, math.nan)
        with pytest.raises(SchemaError):
            db.update("Part", lambda row: row["partkey"] == key, {"retail": math.nan})
        assert db_state(db) == state
        store.close()
        restarted, store, _ = attach_fresh(wal_dir)
        assert db_state(restarted) == state
        store.close()

    def test_update_callables_replay_by_value(self, wal_dir):
        # The committed delta is physical: a restart never re-runs the
        # lambda, so even a side-effecting closure restarts exactly.
        db, store, _ = attach_fresh(wal_dir)
        calls = []

        def bump(row):
            calls.append(row["name"])
            return row["name"] + "!"

        db.update("Nation", lambda r: r["nationkey"] < 2, {"name": bump})
        n_calls = len(calls)
        rows, gens = db_state(db)
        store.close()

        db2, store2, _ = attach_fresh(wal_dir)
        assert db_state(db2) == (rows, gens)
        assert len(calls) == n_calls  # the restart did not re-invoke
        store2.close()

    def test_dates_roundtrip_through_the_log(self, wal_dir):
        db, store, _ = attach_fresh(wal_dir)
        order = db.table("Orders").rows[0]
        key = order[0]
        db.update("Orders", lambda row: row["orderkey"] == key,
                  {"date": datetime.date(1997, 2, 28)})
        rows, gens = db_state(db)
        store.close()
        db2, store2, _ = attach_fresh(wal_dir)
        assert db_state(db2) == (rows, gens)
        restored = db2.table("Orders").lookup_key((key,))
        assert restored[db2.table("Orders").schema.column_index("date")] \
            == datetime.date(1997, 2, 28)
        store2.close()

    def test_transaction_groups_commit_atomically(self, wal_dir):
        db, store, _ = attach_fresh(wal_dir)
        with db.transaction("req-9") as txn:
            db.insert("Nation", 90, "Ninety", 0)
            db.insert("Nation", 91, "NinetyOne", 1)
            txn.result = {"mutated": 2, "table": "Nation",
                          "generation": db.table("Nation").version}
            # Nothing is in the file until the block ends.
            assert nation_names(os.path.dirname(
                crash_image(wal_dir, os.path.join(wal_dir, "mid")))) \
                == nation_names_of(fresh_db())
        assert store.request_result("req-9") == txn.result
        # ONE commit for the whole group.
        assert nation_names(os.path.dirname(
            crash_image(wal_dir, os.path.join(wal_dir, "after")))) \
            == nation_names_of(db)
        store.close()

    def test_failed_transaction_logs_nothing(self, wal_dir):
        db, store, _ = attach_fresh(wal_dir)
        before = db_state(db)
        with pytest.raises(RuntimeError):
            with db.transaction("req-dead"):
                db.insert("Nation", 90, "Ninety", 0)
                raise RuntimeError("mid-request crash")
        assert store.request_result("req-dead") is None
        # Rolled back in memory too, under a new generation.
        assert db_state(db)[0] == before[0]
        assert db.table("Nation").version > before[1]["Nation"]
        store.close()

    def test_nested_transactions_refused(self, wal_dir):
        db, store, _ = attach_fresh(wal_dir)
        with db.transaction():
            with pytest.raises(WalError):
                with db.transaction():
                    pass
        store.close()

    def test_double_attach_refused(self, wal_dir):
        db, store, _ = attach_fresh(wal_dir)
        other = Store(os.path.join(wal_dir, "other"))
        with pytest.raises(WalError):
            other.attach(db)
        other.close()
        store.close()

    def test_update_moving_keys_keeps_slots(self, wal_dir):
        """Two rows trade keys in one update: each keeps its slot, found
        by its pre-image key before either is rewritten."""
        db, store, _ = attach_fresh(wal_dir, database=Database(SCHEMA))
        for key in (3, 1, 2):
            db.insert("T", key, key * 1.5, None, f"r{key}")
        db.update("T", lambda row: row["id"] in (1, 2),
                  {"id": lambda row: 3 - row["id"]})
        store.close()
        restarted, store, _ = attach_fresh(wal_dir,
                                           database=Database(SCHEMA))
        assert repr(restarted.table("T").rows) == repr(db.table("T").rows)
        assert [row[0] for row in restarted.table("T").rows] == [3, 2, 1]
        store.close()

    def test_failed_commit_rolls_the_tables_back(self, wal_dir):
        db, store, _ = attach_fresh(wal_dir)
        state = db_state(db)
        store.close()  # every commit now fails
        with pytest.raises(sqlite3.ProgrammingError):
            db.insert("Nation", 90, "Ninety", 0)
        assert db_state(db)[0] == state[0]


def nation_names_of(db):
    return {row[1] for row in db.table("Nation").rows}


class TestTornTails:
    """Cut or damage SQLite's write-ahead file inside its last commit: a
    restart serves the commit before it, whole."""

    def _committed_wal(self, wal_dir, n_mutations=3):
        db, store, _ = attach_fresh(wal_dir)
        wal_file = store.file.parent / (STORE_FILE + "-wal")
        boundaries = []
        for i in range(n_mutations):
            db.insert("Nation", 80 + i, f"N{i}", i % 3)
            boundaries.append(os.path.getsize(wal_file))
        image = os.path.join(wal_dir, "image")
        data = open(crash_image(wal_dir, image), "rb").read()
        assert len(data) == boundaries[-1]
        store.close()
        return image, data, boundaries

    def _restart_with(self, image, data):
        with open(os.path.join(image, STORE_FILE + "-wal"), "wb") as f:
            f.write(data)
        return nation_names(image)

    def _cuts(self, start, end):
        """Every frame boundary of the last commit, a byte either side
        of it, and a stride through the pages."""
        frame = WAL_FRAME_HEADER + 4096
        cuts = set(range(start, end, 97))
        for boundary in range(start, end + 1, frame):
            cuts |= {boundary - 1, boundary, boundary + 1}
        return sorted(c for c in cuts if start <= c <= end)

    def test_truncation_at_every_byte_of_final_record(self, wal_dir):
        image, data, boundaries = self._committed_wal(wal_dir)
        for cut in self._cuts(boundaries[-2], len(data)):
            names = self._restart_with(image, data[:cut])
            assert {"N0", "N1"} <= names, f"cut={cut}"
            assert ("N2" in names) == (cut == len(data)), f"cut={cut}"

    def test_corruption_at_every_byte_of_final_record(self, wal_dir):
        image, data, boundaries = self._committed_wal(wal_dir)
        for pos in self._cuts(boundaries[-2], len(data) - 1):
            damaged = bytearray(data)
            damaged[pos] ^= 0xFF
            names = self._restart_with(image, bytes(damaged))
            assert {"N0", "N1"} <= names and "N2" not in names, f"pos={pos}"

    def test_attach_clips_torn_tail_and_appends_cleanly(self, wal_dir):
        image, data, boundaries = self._committed_wal(wal_dir)
        with open(os.path.join(image, STORE_FILE + "-wal"), "wb") as f:
            f.write(data[: len(data) - 3])  # tear the last commit
        db, store, _ = attach_fresh(image)
        assert "N2" not in nation_names_of(db)
        db.insert("Nation", 70, "AfterTear", 0)
        store.close()
        # A second restart sees the two survivors and the new commit.
        names = nation_names(image)
        assert {"N0", "N1", "AfterTear"} <= names and "N2" not in names

    def test_oversized_length_field_reads_as_torn(self, wal_dir):
        image, data, _ = self._committed_wal(wal_dir)
        names = self._restart_with(
            image, data + (1 << 31).to_bytes(4, "big") + b"short\0\0\0\0")
        assert {"N0", "N1", "N2"} <= names


class TestCheckpoint:
    def test_checkpoint_truncates_and_recovery_uses_snapshot(self, wal_dir):
        db, store, _ = attach_fresh(wal_dir)
        for i in range(4):
            db.insert("Nation", 60 + i, f"C{i}", 0)
        assert store.size_bytes() > 0
        store.checkpoint()
        assert store.size_bytes() == 0
        rows, gens = db_state(db)
        image = os.path.join(wal_dir, "image")
        crash_image(wal_dir, image)
        store.close()
        # The database file alone holds everything.
        os.remove(os.path.join(image, STORE_FILE + "-wal"))
        db2, store2, restored = attach_fresh(image)
        assert db_state(db2) == (rows, gens)
        assert restored == sum(len(r) for r in rows.values())
        store2.close()

    def test_auto_checkpoint_every_n_records(self, wal_dir):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        db, store, _ = attach_fresh(wal_dir, checkpoint_every=3,
                                    metrics=metrics)
        for i in range(7):
            db.insert("Nation", 60 + i, f"C{i}", 0)
        # 7 commits: checkpoints after the 3rd and 6th, one since.
        assert metrics.counter("wal.appends") == 7
        assert metrics.counter("wal.checkpoints") == 2
        assert 0 < store.size_bytes()
        store.close()

    def test_corrupt_snapshot_raises(self, wal_dir):
        db, store, _ = attach_fresh(wal_dir)
        store.close()
        with open(os.path.join(wal_dir, STORE_FILE), "r+b") as f:
            f.write(b"\xff" * 16)   # the database file's header string
        with pytest.raises(WalError):
            Store(wal_dir)

    def test_another_catalog_is_refused(self, wal_dir):
        db, store, _ = attach_fresh(wal_dir, database=Database(SCHEMA))
        store.close()
        with pytest.raises(WalError):
            attach_fresh(wal_dir)


class TestExactlyOnce:
    def test_dedup_map_survives_restart(self, wal_dir):
        session = Session(fresh_db(), wal=wal_dir)
        first = session.mutate("Nation", op="insert", rows=2,
                               request_id="rq-1")
        again = session.mutate("Nation", op="insert", rows=2,
                               request_id="rq-1")
        assert again.mutated == first.mutated
        assert again.stats.get("deduplicated") is True
        gens = session.database.table_generations()
        session.database.store.close()

        restarted = Session(fresh_db(), wal=wal_dir)
        assert restarted.database.store.restored is not None
        assert restarted.database.table_generations() == gens
        replay = restarted.mutate("Nation", op="insert", rows=2,
                                  request_id="rq-1")
        assert replay.stats.get("deduplicated") is True
        assert replay.mutated == first.mutated
        assert restarted.database.table_generations() == gens
        restarted.database.store.close()

    def test_dedup_map_survives_checkpoint(self, wal_dir):
        session = Session(fresh_db(), wal=wal_dir)
        session.mutate("Nation", op="insert", rows=1, request_id="rq-2")
        session.database.store.checkpoint()
        session.database.store.close()
        restarted = Session(fresh_db(), wal=wal_dir)
        assert restarted.database.store.request_result("rq-2") is not None
        restarted.database.store.close()


class TestSessionWiring:
    def test_recovered_session_serves_bit_identically(self, wal_dir):
        session = Session(fresh_db(), wal=wal_dir)
        session.mutate("Supplier", op="update", rows=2, seed=5)
        session.mutate("Nation", op="insert", rows=1, seed=5)
        live = session.materialize(QUERY_1, root_tag="view")
        session.database.store.close()

        restarted = Session(fresh_db(), wal=wal_dir)
        recovered = restarted.materialize(QUERY_1, root_tag="view")
        assert recovered.xml == live.xml
        assert recovered.report.query_ms == live.report.query_ms
        assert recovered.report.transfer_ms == live.report.transfer_ms
        restarted.database.store.close()

    def test_recovery_remirrors_sqlite_backend(self, wal_dir):
        """The backend of a database with a store runs on the store's
        file: no mirror, no reload, and it sees each commit."""
        from repro.relational.algebra import Scan
        from repro.relational.backends import SqliteBackend, cross_validate

        session = Session(fresh_db(), wal=wal_dir)
        session.mutate("Nation", op="insert", rows=2, seed=3)
        session.database.store.close()

        restarted = Session(fresh_db(), wal=wal_dir)
        backend = SqliteBackend(restarted.database)
        scan = Scan(restarted.database.schema.table("Nation"), "t")
        try:
            rows, _ = backend.execute_sql(scan, "SELECT * FROM Nation t")
            assert len(rows) == len(session.database.table("Nation"))
            # A commit is visible to the backend's own connection.
            restarted.mutate("Nation", op="insert", rows=1, seed=4)
            rows, _ = backend.execute_sql(scan, "SELECT * FROM Nation t")
            assert len(rows) == len(restarted.database.table("Nation"))
            assert backend._generations == {}      # it never mirrored
            checked = cross_validate(
                restarted.connection.engine,
                restarted.view(QUERY_1).specs(), backend,
            )
        finally:
            backend.close()
        served = restarted.materialize(QUERY_1, root_tag="view")
        assert [oracle.server_ms for _, oracle, _ in checked] \
            == [stream.server_ms for stream in served.report.streams]
        restarted.database.store.close()


#: The typed round trip's schema: an INTEGER single-column key (SQLite's
#: rowid alias, were it declared a primary key), a DECIMAL holding ints
#: and floats, a DATE and a VARCHAR, all nullable but the key.
SCHEMA = DatabaseSchema([TableSchema("T", [
    Column("id", SqlType.INTEGER), Column("price", SqlType.DECIMAL, True),
    Column("day", SqlType.DATE, True), Column("note", SqlType.VARCHAR, True),
], key=["id"])])

_values = st.tuples(
    st.one_of(st.none(), st.sampled_from([2, 2.5, 0, -3, 1e-9, 7.0]),
              st.integers(-10**6, 10**6),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.none(), st.dates()),
    st.one_of(st.none(), st.text(max_size=8)),
)


class TestTypedRoundTrip:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=st.lists(st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(0, 30), _values), min_size=1, max_size=25))
    def test_random_schedules_restart_type_for_type(self, steps):
        """Random inserts, updates and deletes: after a restart from the
        store the rows are ``repr``-equal, type for type, in the same slot
        order, under the same generation vector as the never-restarted
        database's — keys inserted out of order, so slot order is not key
        order."""
        path = tempfile.mkdtemp(prefix="wal-typed-")
        try:
            live, store, _ = attach_fresh(path, database=Database(SCHEMA))
            for kind, key, values in steps:
                table = live.table("T")
                if kind == "insert":
                    if table.lookup_key((key,)) is None:
                        live.insert("T", key, *values)
                elif kind == "update":
                    live.update("T", lambda row: row["id"] <= key,
                                dict(zip(("price", "day", "note"), values)))
                else:
                    live.delete("T", lambda row: row["id"] == key)
            store.close()
            restarted, store, _ = attach_fresh(path,
                                               database=Database(SCHEMA))
            store.close()
            assert repr(restarted.table("T").rows) \
                == repr(live.table("T").rows)
            assert restarted.table_generations() == live.table_generations()
        finally:
            shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("query", ["q1", "q2"])
def test_crash_fingerprint_evaluates_every_key(monkeypatch, query):
    """The recovery soak's oracles are real: every (engine, backend) key
    of ``crash.fingerprint`` is an evaluation on that engine — not a
    plan- or document-cache replay of the first one — and its SQLite axis
    sends the served SQL to SQLite."""
    from repro.bench import crash
    from repro.relational.backends import SqliteBackend
    from repro.relational.engine import QueryEngine

    modes, statements = [], []
    evaluate, execute_sql = QueryEngine._evaluate, SqliteBackend.execute_sql

    def counted_evaluate(self, plan, charges):
        modes.append(self.mode)
        return evaluate(self, plan, charges)

    def counted_execute_sql(self, plan, sql):
        statements.append(sql)
        return execute_sql(self, plan, sql)

    monkeypatch.setattr(QueryEngine, "_evaluate", counted_evaluate)
    monkeypatch.setattr(SqliteBackend, "execute_sql", counted_execute_sql)
    prints = crash.fingerprint(
        crash.build_database(), backends=("simulated", "sqlite"),
        queries=(query,),
    )
    served = {key: value for key, value in prints.items() if "/" in key}
    assert sorted(served) == sorted(
        f"{query}/{engine}/{backend}" for engine in ("tuple", "batch")
        for backend in ("simulated", "sqlite")
    )
    assert modes.count("tuple") >= 1 and modes.count("batch") >= 1
    assert len(statements) >= 2        # the served plan, once per engine
    # ... and the engines and the mirror agree, which is the point.
    assert len({value["xml"] for value in served.values()}) == 1
    assert len({value["query_ms"] for value in served.values()}) == 1


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(
    data=st.data(),
    engine=st.sampled_from(["tuple", "batch"]),
)
def test_soak_crashes_interleaved_with_traffic(data, engine):
    """The chaos soak: random mutation/query mixes with crashes (drop the
    log mid-stream without checkpoint or close) injected between them.
    After every crash the recovered database must serve byte-identical
    XML with identical simulated timings versus an oracle that applied
    the same committed mutations directly — on both engines."""
    wal_path = tempfile.mkdtemp(prefix="wal-soak-")
    try:
        def connect(db):
            return Connection(db, CostModel(), engine=engine)

        session = Session(connect(fresh_db()), wal=wal_path)
        oracle = fresh_db()
        steps = data.draw(st.lists(
            st.tuples(
                st.sampled_from(["mutate", "query", "crash"]),
                st.sampled_from(["Nation", "Supplier", "Customer"]),
                st.sampled_from(["insert", "update"]),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=3, max_size=10,
        ))
        for i, (kind, table, op, rows) in enumerate(steps):
            if kind == "mutate":
                session.mutate(table, op=op, rows=rows, seed=i)
                apply_delta(oracle, table, op=op, rows=rows, seed=i)
            elif kind == "query":
                live = session.materialize(QUERY_1, root_tag="view")
                expected = Session(connect(oracle), cache=False).materialize(
                    QUERY_1, root_tag="view")
                assert live.xml == expected.xml
                assert live.report.query_ms == expected.report.query_ms
            else:  # crash: abandon the session, recover from disk
                session.database.store.close()
                session = Session(connect(fresh_db()), wal=wal_path)
                assert session.database.table_generations() \
                    == oracle.table_generations()
                assert {n: list(t.rows)
                        for n, t in session.database.tables.items()} \
                    == {n: list(t.rows) for n, t in oracle.tables.items()}
        session.database.store.close()
    finally:
        shutil.rmtree(wal_path, ignore_errors=True)
