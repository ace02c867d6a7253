"""Durable write-ahead logging and crash recovery for the mutation API.

The middle-ware's materialized state (PR 7's incremental views, PR 8's
serving layer) is only as trustworthy as its base tables: before this
module, every ``Database.insert/update/delete`` lived in process memory
and a server crash silently lost committed writes.  The
:class:`WriteAheadLog` makes the mutation API durable with the classic
recipe:

* **log-then-apply** — each mutation's *physical* delta (inserted row,
  ``(pre-image key, new row)`` update pairs, deleted keys) is appended to
  an append-only, checksummed, ``fsync``'d log *before* the in-memory
  commit.  Value-based logging makes replay exact even for mutations
  expressed with arbitrary Python callables.
* **generation stamps** — every logged op carries the table's post-op
  generation (:attr:`~repro.relational.table.Table.version`).  The stamp
  is the op's LSN: recovery applies an op only when its stamp exceeds the
  table's current generation, which makes replay idempotent across the
  checkpoint race (a crash between snapshot rename and log truncation
  re-reads ops the snapshot already contains — they are skipped).
* **group commit** — :meth:`~repro.relational.database.Database.transaction`
  buffers a request's ops and appends them as ONE checksummed record, so
  a multi-row request is atomic on disk: the crash either persists the
  whole group or none of it.
* **checkpoint** — :meth:`WriteAheadLog.checkpoint` snapshots the whole
  database (rows + generation vector + the request-dedup map) into a
  temporary file, ``fsync``\\ s, atomically renames it over the previous
  snapshot, and only then truncates the log.  ``checkpoint_every=N``
  checkpoints automatically after every N committed records.
* **recovery** — :func:`recover` (or :meth:`WriteAheadLog.attach` on a
  restart) loads the snapshot, replays the log tail, and *tolerates torn
  or partial trailing records*: the reader stops at the first record
  whose length or CRC32 does not check out and reports the dropped
  suffix (``RecoveryReport.torn_bytes``).  A torn tail is a crash
  mid-append — the interrupted mutation never acknowledged, so dropping
  it is correct.  Recovered tables are bit-identical to the pre-crash
  commit point: rows, order, and generation counters.

**Idempotency.**  Records may carry a client ``request_id`` and the
request's recorded result.  The dedup map (rebuilt by recovery, persisted
by checkpoints) is what makes the serving layer's mutations exactly-once
across restarts: a client retry of an already-committed request gets the
recorded result back instead of a second application.

**Cache interaction.**  A recovered database is keyed like any other:
caches key on ``(instance token, per-table generations)``, a recovered
``Database`` is a fresh instance with a fresh token, so nothing stale can
be served; and because generations are restored exactly, the recovered
state invalidates precisely what the live mutations would have.  Restore
into an *existing* database must happen before that database serves any
query (the restart path does this by construction).

On-disk layout (``wal_path`` is a directory)::

    wal_path/
      snapshot     8-byte magic + one checksummed record (the database)
      wal.log      8-byte magic + zero or more checksummed records

Record framing: ``<uint32 length><uint32 crc32(payload)><payload>``,
little-endian; payloads are compact JSON (dates as ``{"d": "ISO-8601"}``).
"""

import datetime
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.common.errors import WalError
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

#: File magic: format name + version byte, padded to 8 bytes.
MAGIC = b"RWAL\x01\x00\x00\x00"
_HEADER = struct.Struct("<II")

#: Sanity bound on a single record; a length field past this is treated
#: as tail corruption, not an allocation request.
MAX_RECORD_BYTES = 64 * 1024 * 1024

WAL_FILE = "wal.log"
SNAPSHOT_FILE = "snapshot"

#: The named durability boundaries the chaos harness can kill a process
#: at (see :func:`set_crash_hook`).
CRASH_POINTS = (
    "append.before_write",
    "append.before_fsync",
    "append.after_fsync",
    "checkpoint.before_rename",
    "checkpoint.after_rename",
    "checkpoint.after_truncate",
)

_crash_hook = None


def set_crash_hook(hook):
    """Install a test hook called with each :data:`CRASH_POINTS` name as
    the log crosses that durability boundary (None uninstalls).  The
    crash harness uses this to SIGKILL itself mid-append/mid-checkpoint;
    production code never sets it."""
    global _crash_hook
    _crash_hook = hook
    return hook


def _crash_point(name):
    if _crash_hook is not None:
        _crash_hook(name)


# -- value / record codecs --------------------------------------------------


def _encode_value(value):
    if isinstance(value, datetime.date):
        return {"d": value.isoformat()}
    return value


def _decode_value(value):
    if isinstance(value, dict):
        return datetime.date.fromisoformat(value["d"])
    return value


def _encode_row(row):
    return [_encode_value(v) for v in row]


def _decode_row(row):
    return tuple(_decode_value(v) for v in row)


def pack_record(payload):
    """One framed record: length + CRC32 header, then the payload."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def iter_records(data, offset=0):
    """Yield ``(payload, end_offset)`` for every intact record in
    ``data`` from ``offset``; stop silently at the first torn or corrupt
    one (short header, short payload, implausible length, CRC mismatch).
    The last yielded ``end_offset`` is the durable prefix boundary."""
    size = len(data)
    while offset + _HEADER.size <= size:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if length > MAX_RECORD_BYTES or start + length > size:
            return
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            return
        yield payload, start + length
        offset = start + length


# -- logical ops ------------------------------------------------------------


def insert_op(table, row, version):
    return {"kind": "insert", "table": table, "row": _encode_row(row),
            "version": version}


def update_op(table, pairs, version):
    return {
        "kind": "update", "table": table,
        "pairs": [[_encode_row(key), _encode_row(row)] for key, row in pairs],
        "version": version,
    }


def delete_op(table, keys, version):
    return {"kind": "delete", "table": table,
            "keys": [_encode_row(key) for key in keys], "version": version}


def apply_op(database, op):
    """Apply one logged op to ``database``; returns True when applied,
    False when the op's generation stamp shows the table already reflects
    it (the snapshot was taken after this record was logged)."""
    table = database.table(op["table"])
    version = op["version"]
    if version <= table.version:
        return False
    kind = op["kind"]
    if kind == "insert":
        table.insert(*_decode_row(op["row"]))
    elif kind == "update":
        table.apply_update(
            [(_decode_row(key), _decode_row(row)) for key, row in op["pairs"]]
        )
    elif kind == "delete":
        table.apply_delete([_decode_row(key) for key in op["keys"]])
    else:
        raise WalError(f"unknown WAL op kind {kind!r}")
    table.version = version
    return True


# -- recovery ---------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery did: where it read, how much it replayed, and
    what it dropped.

    ``snapshot_rows`` counts the rows restored from the snapshot (0
    without one); ``records_scanned``/``records_applied`` count whole
    commit records, ``ops_applied``/``ops_skipped`` the per-table ops
    inside them (skipped = already reflected by the snapshot — the
    checkpoint-race idempotency); ``torn_bytes`` is the corrupt/partial
    suffix dropped from the log tail; ``dedup`` maps committed request
    ids to their recorded results (the exactly-once map); ``tables``
    maps table names to ``(row count, generation)`` after recovery.
    """

    path: str
    snapshot_rows: int = 0
    records_scanned: int = 0
    records_applied: int = 0
    ops_applied: int = 0
    ops_skipped: int = 0
    torn_bytes: int = 0
    wall_ms: float = 0.0
    dedup: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "path": self.path,
            "snapshot_rows": self.snapshot_rows,
            "records_scanned": self.records_scanned,
            "records_applied": self.records_applied,
            "ops_applied": self.ops_applied,
            "ops_skipped": self.ops_skipped,
            "torn_bytes": self.torn_bytes,
            "wall_ms": self.wall_ms,
            "tables": {name: list(v) for name, v in self.tables.items()},
        }


def _read_framed_file(path, what):
    """``(payload list, good_offset, total_size)`` of a framed file; a
    missing file or a tail torn before the magic completes reads as
    empty.  A *present but wrong* magic is real corruption."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0, 0
    if len(data) < len(MAGIC):
        return [], 0, len(data)
    if data[:len(MAGIC)] != MAGIC:
        raise WalError(f"{what} {path} is not a recognized WAL file")
    payloads = []
    good = len(MAGIC)
    for payload, end in iter_records(data, len(MAGIC)):
        payloads.append(payload)
        good = end
    return payloads, good, len(data)


def _load_snapshot(path):
    """The decoded snapshot payload dict, or None when no snapshot
    exists.  A snapshot is written atomically (tmp + fsync + rename), so
    a torn one is corruption, not a tolerated crash artifact."""
    snapshot = Path(path) / SNAPSHOT_FILE
    if not snapshot.exists():
        return None
    payloads, _, size = _read_framed_file(snapshot, "snapshot")
    if not payloads:
        raise WalError(
            f"snapshot {snapshot} is corrupt ({size} byte(s), no intact "
            f"record) — snapshots are written atomically, so this is "
            f"damage, not a torn append"
        )
    return json.loads(payloads[0].decode("utf-8"))


def _restore_snapshot(database, payload):
    tables = payload["tables"]
    have = set(database.tables)
    want = set(tables)
    if have != want:
        raise WalError(
            f"snapshot catalog mismatch: snapshot has "
            f"{sorted(want - have) or '[]'} extra / "
            f"{sorted(have - want) or '[]'} missing vs the database schema"
        )
    rows_restored = 0
    for name, entry in tables.items():
        rows = [_decode_row(row) for row in entry["rows"]]
        database.table(name).restore(rows, entry["version"])
        rows_restored += len(rows)
    database._stats.clear()
    return rows_restored


def recover(path, schema=None, database=None, metrics=None, tracer=None):
    """Reconstruct a database from ``path``'s snapshot + log tail.

    Pass ``schema`` to build a fresh :class:`~repro.relational.database.
    Database` (the restart path), or ``database`` to restore into an
    existing *unqueried* instance.  Torn/partial trailing records are
    tolerated and reported, never raised.

    Returns ``(database, RecoveryReport)``.
    """
    metrics = metrics if metrics is not None else NULL_METRICS
    tracer = tracer if tracer is not None else NULL_TRACER
    if database is None:
        if schema is None:
            raise WalError("recover() needs a schema or a database")
        from repro.relational.database import Database

        database = Database(schema)
    path = Path(path)
    started = perf_counter()
    with tracer.span("recover", path=str(path)):
        snapshot = _load_snapshot(path)
        snapshot_rows = 0
        dedup = {}
        if snapshot is not None:
            snapshot_rows = _restore_snapshot(database, snapshot)
            dedup.update(snapshot.get("dedup") or {})
        payloads, good, size = _read_framed_file(path / WAL_FILE, "WAL")
        records_applied = ops_applied = ops_skipped = 0
        for payload in payloads:
            record = json.loads(payload.decode("utf-8"))
            applied_any = False
            for op in record.get("ops", ()):
                if apply_op(database, op):
                    ops_applied += 1
                    applied_any = True
                else:
                    ops_skipped += 1
            if applied_any or record.get("ops") == []:
                records_applied += 1
            request_id = record.get("request_id")
            if request_id is not None:
                dedup[request_id] = record.get("result")
    wall_ms = (perf_counter() - started) * 1000.0
    report = RecoveryReport(
        path=str(path),
        snapshot_rows=snapshot_rows,
        records_scanned=len(payloads),
        records_applied=records_applied,
        ops_applied=ops_applied,
        ops_skipped=ops_skipped,
        torn_bytes=max(0, size - good) if size else 0,
        wall_ms=wall_ms,
        dedup=dedup,
        tables={
            name: (len(table), table.version)
            for name, table in database.tables.items()
        },
    )
    metrics.inc("wal.recoveries")
    metrics.inc("wal.records_replayed", report.records_scanned)
    metrics.inc("wal.ops_replayed", ops_applied)
    metrics.inc("wal.torn_bytes", report.torn_bytes)
    return database, report


# -- the log ----------------------------------------------------------------


class WriteAheadLog:
    """One durable mutation log + snapshot pair under a directory.

    ``checkpoint_every=N`` snapshots + truncates automatically after
    every N committed records (None never auto-checkpoints — call
    :meth:`checkpoint` yourself).  ``durable=False`` skips the per-append
    ``fsync`` (for tests that hammer the log; the serving layer always
    runs durable).  ``metrics`` receives the ``wal.*`` counters
    (appends, ops, bytes, fsyncs, checkpoints, dedup hits, recoveries).

    Typical lifecycle — the same call works for a cold start and a
    restart::

        wal = WriteAheadLog("state/", checkpoint_every=256)
        report = wal.attach(database)   # restore if state exists,
                                        # else write the initial snapshot
        database.insert(...)            # logged + fsynced before applied
    """

    def __init__(self, path, checkpoint_every=None, metrics=None,
                 tracer=None, durable=True):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = checkpoint_every
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.durable = durable
        self._lock = threading.RLock()
        self._file = None
        self._dedup = {}
        self._records_since_checkpoint = 0
        self._database = None

    @property
    def wal_file(self):
        return self.path / WAL_FILE

    @property
    def snapshot_file(self):
        return self.path / SNAPSHOT_FILE

    # -- idempotency --------------------------------------------------------

    def request_result(self, request_id):
        """The recorded result of an already-committed request, or None —
        the serving layer's exactly-once check.  Survives restarts: the
        map is rebuilt by recovery and persisted by checkpoints."""
        with self._lock:
            result = self._dedup.get(request_id)
        if result is not None:
            self.metrics.inc("wal.dedup_hits")
        return result

    # -- attach / restore ---------------------------------------------------

    def attach(self, database):
        """Bind ``database`` to this log: restore its state when the
        directory already holds one (returns the
        :class:`RecoveryReport`), else write the initial snapshot
        (returns None).  Either way, subsequent
        ``database.insert/update/delete`` commit through this log.  The
        database must not have served queries yet — restore replaces
        table contents underneath any warmed cache."""
        with self._lock:
            if database.wal is not None:
                raise WalError("database is already attached to a WAL")
            self._database = database
            report = None
            if self.snapshot_file.exists() or self.wal_file.exists():
                _, report = recover(
                    self.path, database=database, metrics=self.metrics,
                    tracer=self.tracer,
                )
                self._dedup = dict(report.dedup)
                # Clip any torn tail so future appends start at a clean
                # record boundary, and keep appending to the survivor.
                if report.torn_bytes:
                    self._truncate_torn_tail()
                self._records_since_checkpoint = report.records_scanned
            else:
                database.attach_wal(self)
                self.checkpoint(database)
                return None
            database.attach_wal(self)
            return report

    def _truncate_torn_tail(self):
        data = self.wal_file.read_bytes() if self.wal_file.exists() else b""
        good = len(MAGIC) if len(data) >= len(MAGIC) else 0
        for _, end in iter_records(data, good or len(MAGIC)):
            good = end
        with open(self.wal_file, "r+b" if data else "wb") as f:
            if not data:
                f.write(MAGIC)
                good = len(MAGIC)
            f.truncate(good)
            f.flush()
            if self.durable:
                os.fsync(f.fileno())

    # -- appending ----------------------------------------------------------

    def _open(self):
        if self._file is None:
            fresh = (not self.wal_file.exists()
                     or self.wal_file.stat().st_size == 0)
            self._file = open(self.wal_file, "ab")
            if fresh:
                self._file.write(MAGIC)
        return self._file

    def append(self, ops, request_id=None, result=None):
        """Append one commit record (a list of physical ops, optionally a
        request id + its result) and make it durable.  The ``fsync``
        before return is the commit point: once this method returns, the
        record survives any crash."""
        payload = json.dumps(
            {"ops": list(ops), "request_id": request_id, "result": result},
            separators=(",", ":"),
        ).encode("utf-8")
        record = pack_record(payload)
        with self._lock:
            f = self._open()
            _crash_point("append.before_write")
            f.write(record)
            f.flush()
            _crash_point("append.before_fsync")
            if self.durable:
                os.fsync(f.fileno())
                self.metrics.inc("wal.fsyncs")
            _crash_point("append.after_fsync")
            if request_id is not None:
                self._dedup[request_id] = result
            self._records_since_checkpoint += 1
            self.metrics.inc("wal.appends")
            self.metrics.inc("wal.ops", len(ops))
            self.metrics.inc("wal.bytes", len(record))

    def maybe_checkpoint(self, database=None):
        """Checkpoint when ``checkpoint_every`` records have accumulated
        since the last one.  Called by the database *after* applying a
        logged mutation, so the snapshot always contains what the log it
        truncates contained."""
        with self._lock:
            if (self.checkpoint_every is not None
                    and self._records_since_checkpoint
                    >= self.checkpoint_every):
                self.checkpoint(database or self._database)

    # -- checkpoint ---------------------------------------------------------

    def _snapshot_payload(self, database):
        return json.dumps(
            {
                "tables": {
                    name: {
                        "version": table.version,
                        "rows": [_encode_row(row) for row in table.rows],
                    }
                    for name, table in database.tables.items()
                },
                "dedup": self._dedup,
            },
            separators=(",", ":"),
        ).encode("utf-8")

    def checkpoint(self, database):
        """Snapshot ``database`` atomically, then truncate the log.

        Write order is what makes every crash point safe: the snapshot is
        built in a temporary file, ``fsync``'d, and renamed over the old
        one (atomic on POSIX) *before* the log is truncated.  A crash
        before the rename leaves the old snapshot + full log; a crash
        between rename and truncation leaves a new snapshot plus a log
        whose records it already contains — replay skips them by
        generation stamp.
        """
        if database is None:
            raise WalError("checkpoint() needs the attached database")
        with self._lock:
            started = perf_counter()
            with self.tracer.span("wal.checkpoint"):
                payload = self._snapshot_payload(database)
                tmp = self.path / (SNAPSHOT_FILE + ".tmp")
                with open(tmp, "wb") as f:
                    f.write(MAGIC)
                    f.write(pack_record(payload))
                    f.flush()
                    if self.durable:
                        os.fsync(f.fileno())
                _crash_point("checkpoint.before_rename")
                os.replace(tmp, self.snapshot_file)
                self._sync_directory()
                _crash_point("checkpoint.after_rename")
                if self._file is not None:
                    self._file.close()
                    self._file = None
                with open(self.wal_file, "wb") as f:
                    f.write(MAGIC)
                    f.flush()
                    if self.durable:
                        os.fsync(f.fileno())
                _crash_point("checkpoint.after_truncate")
                self._records_since_checkpoint = 0
            self.metrics.inc("wal.checkpoints")
            self.metrics.inc(
                "wal.checkpoint_ms", (perf_counter() - started) * 1000.0)
            self.metrics.gauge("wal.snapshot_bytes", len(payload))

    def _sync_directory(self):
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fsync
            return
        try:
            if self.durable:
                os.fsync(fd)
        finally:
            os.close(fd)

    # -- lifecycle ----------------------------------------------------------

    def size_bytes(self):
        """Current log size (the appended-but-not-yet-checkpointed part)."""
        try:
            return self.wal_file.stat().st_size
        except FileNotFoundError:
            return 0

    def close(self):
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class WalTransaction:
    """The recorder yielded by
    :meth:`~repro.relational.database.Database.transaction`: buffers the
    group's physical ops; the caller may set :attr:`result` (recorded
    under the group's ``request_id`` for exactly-once retries)."""

    __slots__ = ("request_id", "ops", "result")

    def __init__(self, request_id=None):
        self.request_id = request_id
        self.ops = []
        self.result = None


__all__ = [
    "CRASH_POINTS",
    "MAGIC",
    "MAX_RECORD_BYTES",
    "RecoveryReport",
    "WalTransaction",
    "WriteAheadLog",
    "apply_op",
    "delete_op",
    "insert_op",
    "iter_records",
    "pack_record",
    "recover",
    "set_crash_hook",
    "update_op",
]
