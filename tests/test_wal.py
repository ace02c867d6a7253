"""Durability: the write-ahead log, crash recovery, and exactly-once.

The load-bearing contracts:

* **log-then-apply** — a mutation that returns has hit the disk first; a
  mutation that fails validation never reaches the log;
* **bit-identical recovery** — snapshot + log-tail replay reconstructs
  table contents, row order, AND per-table generation counters exactly,
  so a recovered database serves byte-identical XML with identical
  simulated timings, on both engines and against the SQLite mirror;
* **torn tails are dropped, never fatal** — truncating or corrupting the
  log at *every byte boundary* of the final record loses only that
  uncommitted suffix (the fuzz tests);
* **checkpoints are crash-safe at every step** — a crash between the
  snapshot rename and the log truncation replays the log onto a snapshot
  that already contains it; version stamps make that a no-op;
* **exactly-once** — a request id committed before a crash deduplicates
  after the restart, returning the recorded result.
"""

import datetime
import json
import math
import os
import shutil
import struct
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import QUERY_1
from repro.common.errors import SchemaError, WalError
from repro.relational.connection import Connection
from repro.relational.engine import CostModel
from repro.relational.wal import (
    MAGIC,
    RecoveryReport,
    WriteAheadLog,
    iter_records,
    pack_record,
    recover,
)
from repro.session import Session, apply_delta
from repro.tpch.generator import TpchGenerator, TpchScale
from repro.tpch.schema import tpch_schema

TINY = TpchScale(suppliers=6, parts=10, customers=8, orders=24)


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


def attach_fresh(path, seed=42, **kwargs):
    db = fresh_db(seed)
    wal = WriteAheadLog(path, **kwargs)
    report = wal.attach(db)
    return db, wal, report


class TestFraming:
    def test_record_roundtrip(self):
        payloads = [b'{"a":1}', b'{"b":' + b"x" * 1000 + b'}']
        blob = MAGIC + b"".join(pack_record(p) for p in payloads)
        got = [p for p, _ in iter_records(blob, len(MAGIC))]
        assert got == payloads

    def test_reader_stops_at_crc_mismatch(self):
        good = pack_record(b'{"a":1}')
        bad = bytearray(pack_record(b'{"b":2}'))
        bad[-1] ^= 0xFF
        blob = MAGIC + good + bytes(bad) + pack_record(b'{"c":3}')
        got = [p for p, _ in iter_records(blob, len(MAGIC))]
        # Everything after the first corrupt record is unreachable: record
        # boundaries cannot be trusted past a bad checksum.
        assert got == [b'{"a":1}']

    def test_wrong_magic_is_an_error(self, wal_dir):
        (os.path.join(wal_dir, "wal.log"))
        with open(os.path.join(wal_dir, "wal.log"), "wb") as f:
            f.write(b"NOTAWAL!" + pack_record(b"{}"))
        with pytest.raises(WalError):
            recover(wal_dir, schema=tpch_schema())


class TestLogThenApply:
    def test_mutations_survive_restart_bit_identically(self, wal_dir):
        db, wal, report = attach_fresh(wal_dir)
        assert report is None  # cold start: initial checkpoint, no replay
        db.insert("Nation", 99, "Zigzag", 0)
        db.update("Nation", lambda row: row["nationkey"] == 99, {"name": "Zagzig"})
        db.delete("Nation", lambda row: row["nationkey"] == 99)
        db.insert("Nation", 98, "Kept", 1)
        rows, gens = db_state(db)
        wal.close()

        db2, wal2, report2 = attach_fresh(wal_dir)
        assert db_state(db2) == (rows, gens)
        assert report2.records_scanned == 4
        assert report2.torn_bytes == 0
        wal2.close()

    def test_rejected_mutation_never_reaches_the_log(self, wal_dir):
        db, wal, _ = attach_fresh(wal_dir)
        size_before = wal.size_bytes()
        key = db.table("Nation").rows[0][0]
        with pytest.raises(SchemaError):
            db.insert("Nation", key, "Duplicate", 0)  # key collision
        with pytest.raises(SchemaError):
            db.insert("Nation", 500, None, 0)  # NOT NULL name
        assert wal.size_bytes() == size_before
        # And the in-memory state is untouched (validation precedes both
        # the log append and the apply).
        assert db.table("Nation").version == fresh_db().table("Nation").version
        wal.close()

    def test_non_finite_decimal_is_refused_everywhere(self, wal_dir):
        """NaN in a DECIMAL column: refused by insert and update before
        the log, and by recovery when a log holds one anyway."""
        db, wal, _ = attach_fresh(wal_dir)
        part = db.table("Part")
        size_before, state = wal.size_bytes(), db_state(db)
        key = part.rows[0][0]
        with pytest.raises(SchemaError):
            db.insert("Part", 900, "p900", "m", "b", 1, math.nan)
        with pytest.raises(SchemaError):
            db.update("Part", lambda row: row["partkey"] == key, {"retail": math.nan})
        assert (wal.size_bytes(), db_state(db)) == (size_before, state)
        # A log written before the check: one finite update, turned NaN.
        db.update("Part", lambda row: row["partkey"] == key, {"retail": 1.5})
        wal.close()
        data = open(wal.wal_file, "rb").read()
        [(payload, _)] = iter_records(data, len(MAGIC))
        record = json.loads(payload)
        record["ops"][0]["pairs"][0][1][-1] = math.nan
        with open(wal.wal_file, "wb") as f:
            f.write(MAGIC + pack_record(json.dumps(record).encode()))
        restarted = fresh_db()
        with pytest.raises(SchemaError):
            WriteAheadLog(wal_dir).attach(restarted)
        assert db_state(restarted) == state

    def test_update_callables_replay_by_value(self, wal_dir):
        # The logged delta is physical: replay never re-runs the lambda,
        # so even a side-effecting closure recovers deterministically.
        db, wal, _ = attach_fresh(wal_dir)
        calls = []

        def bump(row):
            calls.append(row["name"])
            return row["name"] + "!"

        db.update("Nation", lambda r: r["nationkey"] < 2, {"name": bump})
        n_calls = len(calls)
        rows, gens = db_state(db)
        wal.close()

        db2, wal2, _ = attach_fresh(wal_dir)
        assert db_state(db2) == (rows, gens)
        assert len(calls) == n_calls  # replay did not re-invoke
        wal2.close()

    def test_dates_roundtrip_through_the_log(self, wal_dir):
        db, wal, _ = attach_fresh(wal_dir)
        order = db.table("Orders").rows[0]
        key = order[0]
        db.update("Orders", lambda row: row["orderkey"] == key,
                  {"date": datetime.date(1997, 2, 28)})
        rows, gens = db_state(db)
        wal.close()
        db2, wal2, _ = attach_fresh(wal_dir)
        assert db_state(db2) == (rows, gens)
        restored = db2.table("Orders").lookup_key((key,))
        assert restored[db2.table("Orders").schema.column_index("date")] \
            == datetime.date(1997, 2, 28)
        wal2.close()

    def test_transaction_groups_commit_atomically(self, wal_dir):
        db, wal, _ = attach_fresh(wal_dir)
        before = wal.size_bytes()
        with db.transaction("req-9") as txn:
            db.insert("Nation", 90, "Ninety", 0)
            db.insert("Nation", 91, "NinetyOne", 1)
            txn.result = {"mutated": 2, "table": "Nation",
                          "generation": db.table("Nation").version}
        after = wal.size_bytes()
        assert after > before
        # ONE record for the whole group.
        data = open(wal.wal_file, "rb").read()
        records = [json.loads(p) for p, _ in iter_records(data, len(MAGIC))]
        assert len(records) == 1
        assert len(records[0]["ops"]) == 2
        assert records[0]["request_id"] == "req-9"
        wal.close()

    def test_failed_transaction_logs_nothing(self, wal_dir):
        db, wal, _ = attach_fresh(wal_dir)
        before = wal.size_bytes()
        with pytest.raises(RuntimeError):
            with db.transaction("req-dead"):
                db.insert("Nation", 90, "Ninety", 0)
                raise RuntimeError("mid-request crash")
        assert wal.size_bytes() == before
        assert wal.request_result("req-dead") is None
        wal.close()

    def test_nested_transactions_refused(self, wal_dir):
        db, wal, _ = attach_fresh(wal_dir)
        with db.transaction():
            with pytest.raises(WalError):
                with db.transaction():
                    pass
        wal.close()

    def test_double_attach_refused(self, wal_dir):
        db, wal, _ = attach_fresh(wal_dir)
        other = WriteAheadLog(os.path.join(wal_dir, "other"))
        with pytest.raises(WalError):
            other.attach(db)
        wal.close()


class TestTornTails:
    """The fuzz satellite: damage the final record at every byte."""

    def _committed_wal(self, wal_dir, n_mutations=3):
        db, wal, _ = attach_fresh(wal_dir)
        for i in range(n_mutations):
            db.insert("Nation", 80 + i, f"N{i}", i % 3)
        states = db_state(db)
        wal.close()
        data = open(wal.wal_file, "rb").read()
        boundaries = [end for _, end in iter_records(data, len(MAGIC))]
        assert len(boundaries) == n_mutations
        return data, boundaries, states

    def test_truncation_at_every_byte_of_final_record(self, wal_dir):
        data, boundaries, _ = self._committed_wal(wal_dir)
        last_start = boundaries[-2]
        wal_file = os.path.join(wal_dir, "wal.log")
        for cut in range(last_start, len(data)):
            with open(wal_file, "wb") as f:
                f.write(data[:cut])
            db, report = recover(wal_dir, database=fresh_db())
            if cut == len(data):
                expected, torn = 3, 0
            else:
                expected, torn = 2, cut - last_start
            assert report.records_scanned == expected, f"cut={cut}"
            assert report.torn_bytes == torn, f"cut={cut}"
            # Only the uncommitted suffix is gone.
            names = {r[1] for r in db.table("Nation").rows}
            assert {"N0", "N1"} <= names, f"cut={cut}"
            assert ("N2" in names) == (expected == 3), f"cut={cut}"

    def test_corruption_at_every_byte_of_final_record(self, wal_dir):
        data, boundaries, _ = self._committed_wal(wal_dir)
        last_start = boundaries[-2]
        wal_file = os.path.join(wal_dir, "wal.log")
        for pos in range(last_start, len(data)):
            damaged = bytearray(data)
            damaged[pos] ^= 0xFF
            with open(wal_file, "wb") as f:
                f.write(bytes(damaged))
            db, report = recover(wal_dir, database=fresh_db())
            # A flipped byte in the final record (header or payload) must
            # never make recovery raise or apply damaged data: either the
            # record is dropped (length/CRC refuse it) or — flipping a
            # length byte that makes the frame *appear* longer — it reads
            # as torn.  Both land on records_scanned == 2.
            assert report.records_scanned == 2, f"pos={pos}"
            names = {r[1] for r in db.table("Nation").rows}
            assert {"N0", "N1"} <= names and "N2" not in names, f"pos={pos}"

    def test_attach_clips_torn_tail_and_appends_cleanly(self, wal_dir):
        data, boundaries, _ = self._committed_wal(wal_dir)
        wal_file = os.path.join(wal_dir, "wal.log")
        with open(wal_file, "wb") as f:
            f.write(data[: len(data) - 3])  # tear the last record
        db, wal, report = attach_fresh(wal_dir)
        assert report.torn_bytes > 0
        # The torn suffix is physically clipped so new appends start on a
        # record boundary...
        assert os.path.getsize(wal_file) == boundaries[-2]
        db.insert("Nation", 70, "AfterTear", 0)
        wal.close()
        # ...and a second recovery sees a clean log: two survivors + one
        # new record, no torn bytes.
        db2, wal2, report2 = attach_fresh(wal_dir)
        assert report2.torn_bytes == 0
        assert report2.records_scanned == 3
        names = {r[1] for r in db2.table("Nation").rows}
        assert "AfterTear" in names and "N2" not in names
        wal2.close()

    def test_oversized_length_field_reads_as_torn(self, wal_dir):
        db, wal, _ = attach_fresh(wal_dir)
        db.insert("Nation", 80, "Good", 0)
        wal.close()
        with open(wal.wal_file, "ab") as f:
            f.write(struct.pack("<II", 1 << 31, 0) + b"short")
        _, report = recover(wal_dir, database=fresh_db())
        assert report.records_scanned == 1
        assert report.torn_bytes == 13


class TestCheckpoint:
    def test_checkpoint_truncates_and_recovery_uses_snapshot(self, wal_dir):
        db, wal, _ = attach_fresh(wal_dir)
        for i in range(4):
            db.insert("Nation", 60 + i, f"C{i}", 0)
        assert wal.size_bytes() > len(MAGIC)
        wal.checkpoint(db)
        assert wal.size_bytes() == len(MAGIC)
        rows, gens = db_state(db)
        wal.close()
        db2, wal2, report = attach_fresh(wal_dir)
        assert db_state(db2) == (rows, gens)
        assert report.records_scanned == 0
        assert report.snapshot_rows == sum(len(r) for r in rows.values())
        wal2.close()

    def test_auto_checkpoint_every_n_records(self, wal_dir):
        db, wal, _ = attach_fresh(wal_dir, checkpoint_every=3)
        for i in range(7):
            db.insert("Nation", 60 + i, f"C{i}", 0)
        # 7 records: checkpoints after the 3rd and 6th, one in the log.
        data = open(wal.wal_file, "rb").read()
        assert len(list(iter_records(data, len(MAGIC)))) == 1
        wal.close()

    def test_crash_between_rename_and_truncate_is_idempotent(self, wal_dir):
        # The checkpoint race: snapshot renamed, log NOT truncated — the
        # log's records are already inside the snapshot.  Version stamps
        # must make the replay skip them instead of double-applying.
        db, wal, _ = attach_fresh(wal_dir)
        for i in range(3):
            db.insert("Nation", 60 + i, f"C{i}", 0)
        rows, gens = db_state(db)
        log_data = open(wal.wal_file, "rb").read()
        wal.checkpoint(db)
        wal.close()
        # Resurrect the pre-checkpoint log next to the new snapshot.
        with open(os.path.join(wal_dir, "wal.log"), "wb") as f:
            f.write(log_data)
        db2, report = recover(wal_dir, database=fresh_db())
        assert report.records_scanned == 3
        assert report.ops_applied == 0
        assert report.ops_skipped == 3
        assert db_state(db2) == (rows, gens)

    def test_corrupt_snapshot_raises(self, wal_dir):
        db, wal, _ = attach_fresh(wal_dir)
        wal.close()
        snapshot = os.path.join(wal_dir, "snapshot")
        data = bytearray(open(snapshot, "rb").read())
        data[len(MAGIC) + 12] ^= 0xFF
        with open(snapshot, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(WalError):
            recover(wal_dir, schema=tpch_schema())


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
        session.wal.close()

        restarted = Session(fresh_db(), wal=wal_dir)
        assert restarted.recovery is not None
        assert restarted.database.table_generations() == gens
        replay = restarted.mutate("Nation", op="insert", rows=2,
                                  request_id="rq-1")
        assert replay.stats.get("deduplicated") is True
        assert replay.mutated == first.mutated
        assert restarted.database.table_generations() == gens
        restarted.wal.close()

    def test_dedup_map_survives_checkpoint(self, wal_dir):
        session = Session(fresh_db(), wal=wal_dir)
        session.mutate("Nation", op="insert", rows=1, request_id="rq-2")
        session.wal.checkpoint(session.database)  # truncates the log
        session.wal.close()
        restarted = Session(fresh_db(), wal=wal_dir)
        assert restarted.wal.request_result("rq-2") is not None
        restarted.wal.close()


class TestSessionWiring:
    def test_recovered_session_serves_bit_identically(self, wal_dir):
        session = Session(fresh_db(), wal=wal_dir)
        session.mutate("Supplier", op="update", rows=2, seed=5)
        session.mutate("Nation", op="insert", rows=1, seed=5)
        live = session.materialize(QUERY_1, root_tag="view")
        session.wal.close()

        restarted = Session(fresh_db(), wal=wal_dir)
        recovered = restarted.materialize(QUERY_1, root_tag="view")
        assert recovered.xml == live.xml
        assert recovered.report.query_ms == live.report.query_ms
        assert recovered.report.transfer_ms == live.report.transfer_ms
        restarted.wal.close()

    def test_recovery_remirrors_sqlite_backend(self, wal_dir):
        from repro.relational.algebra import Scan
        from repro.relational.backends import SqliteBackend, cross_validate

        session = Session(fresh_db(), wal=wal_dir)
        session.mutate("Nation", op="insert", rows=2, seed=3)
        session.wal.close()

        restarted = Session(fresh_db(), wal=wal_dir)
        # A mirror built over the recovered database holds the recovered
        # rows: cross-validation aligns every stream of the served plan
        # with the simulated engine (BackendMismatchError otherwise).
        mirror = SqliteBackend(restarted.database)
        try:
            rows, _ = mirror.execute_sql(
                Scan(restarted.database.schema.table("Nation"), "t"),
                "SELECT * FROM Nation t")
            assert len(rows) == len(session.database.table("Nation"))
            checked = cross_validate(
                restarted.connection.engine,
                restarted.view(QUERY_1).specs(), mirror,
            )
        finally:
            mirror.close()
        served = restarted.materialize(QUERY_1, root_tag="view")
        assert [oracle.server_ms for _, oracle, _ in checked] \
            == [stream.server_ms for stream in served.report.streams]
        restarted.wal.close()

    def test_recover_function_reports(self, wal_dir):
        session = Session(fresh_db(), wal=wal_dir)
        session.mutate("Nation", op="insert", rows=2, seed=1)
        session.wal.close()
        database, report = recover(wal_dir, schema=tpch_schema())
        assert isinstance(report, RecoveryReport)
        assert report.snapshot_rows > 0
        assert report.records_scanned == 1
        assert database.table_generations() \
            == session.database.table_generations()
        as_dict = report.as_dict()
        assert as_dict["records_scanned"] == 1
        assert "Nation" in as_dict["tables"]


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
                session.wal.close()
                session = Session(connect(fresh_db()), wal=wal_path)
                assert session.database.table_generations() \
                    == oracle.table_generations()
                assert {n: list(t.rows)
                        for n, t in session.database.tables.items()} \
                    == {n: list(t.rows) for n, t in oracle.tables.items()}
        session.wal.close()
    finally:
        shutil.rmtree(wal_path, ignore_errors=True)
