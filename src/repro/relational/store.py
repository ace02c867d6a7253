"""The durable store: one SQLite file is the database of record.

The paper's middle-ware owns no data; it sends SQL to an RDBMS that does
(Sec. 1).  So durability is left to a real one: a file-backed stdlib
``sqlite3`` database, ``<path>/store.sqlite``, in SQLite's WAL journal
mode with ``synchronous=FULL``, holds every table's rows, each table's
generation (:attr:`~repro.relational.table.Table.version`) and the
request-dedup map.  The in-memory :class:`~repro.relational.database.
Database` is what the engine reads; the file is what survives a crash.

* **Commit.**  :meth:`~repro.relational.database.Database.transaction`
  hands a request's physical ops (inserted rows, ``(pre-image key, new
  row)`` update pairs, deleted keys), the new generations of the tables
  they touched and the request's id and result to :meth:`Store.commit`,
  which writes them as ONE SQLite transaction.  A lone
  ``insert``/``update``/``delete`` is a one-op transaction.  Until the
  COMMIT returns the in-memory tables hold the request provisionally: a
  failed commit rolls them back.
* **Restart.**  :meth:`Store.attach` on a file that holds state replaces
  the fresh database's rows and generations with the file's, so a
  restarted server serves what the crashed one committed, byte for byte
  and with the same generation vector; on an empty file it writes the
  database's rows once.  There is no log to replay: what SQLite
  committed is the state.
* **Checkpoints.**  ``checkpoint_every=N`` runs ``PRAGMA
  wal_checkpoint(TRUNCATE)`` after every N commits, folding SQLite's own
  write-ahead file back into the database file.

Values come back type for type.  A table's rows sit in ``rowid`` order,
which is slot order: an insert appends, an update rewrites its rows in
place, a delete keeps the survivors' order.  The store declares no
primary key, since a single ``INTEGER PRIMARY KEY`` column would *be* the
rowid and order the rows by key.  A DECIMAL column has no type affinity,
so ``2`` stays an ``int`` and ``2.5`` a ``float`` (REAL affinity returns
``2.0``); DATE is ISO-8601 text, which sorts chronologically.
The table names and columns are the schema's, so
:class:`~repro.relational.backends.SqliteBackend` runs the generated SQL
on this file.
"""

import datetime
import json
import sqlite3
import threading
from pathlib import Path
from time import perf_counter

from repro.common.errors import WalError
from repro.obs.metrics import NULL_METRICS
from repro.relational.types import SqlType

STORE_FILE = "store.sqlite"

#: Where a commit may be cut short: the request written but not
#: committed, and committed but not yet handed back to the database.
CRASH_POINTS = ("before_commit", "after_commit")


def _crash_point(name):
    """A commit crossing one of :data:`CRASH_POINTS`: nothing happens.
    The crash harness's child replaces this function to SIGKILL itself
    there."""


#: Column type per SQL type.  "BLOB" gives a column no affinity, so a
#: DECIMAL keeps its int or float as written.
_COLUMN_TYPE = {
    SqlType.INTEGER: "INTEGER",
    SqlType.DECIMAL: "BLOB",
    SqlType.VARCHAR: "TEXT",
    SqlType.CHAR: "TEXT",
    SqlType.DATE: "TEXT",
}


def quote(name):
    """``name`` as an always-quoted SQLite identifier."""
    return '"%s"' % name.replace('"', '""')


class TableSql:
    """One table's statements and DATE positions (in the row and in the
    key), built once per attach; the SQLite backend's mirror loads with
    the same ``insert``."""

    def __init__(self, schema):
        table = quote(schema.name)
        columns = schema.columns
        self.dates = [i for i, c in enumerate(columns)
                      if c.sql_type is SqlType.DATE]
        self.key_dates = [i for i, k in enumerate(schema.key)
                          if schema.column(k).sql_type is SqlType.DATE]
        by_key = " AND ".join(f"{quote(k)} = ?" for k in schema.key)
        self.create = (
            f"CREATE TABLE IF NOT EXISTS {table} ("
            + ", ".join(f"{quote(c.name)} {_COLUMN_TYPE[c.sql_type]}"
                        for c in columns) + ")")
        self.index = (
            f"CREATE INDEX IF NOT EXISTS {quote(schema.name + '_key')} "
            f"ON {table} (" + ", ".join(map(quote, schema.key)) + ")")
        self.select = f"SELECT * FROM {table} ORDER BY rowid"
        self.insert = (f"INSERT INTO {table} VALUES ("
                       + ", ".join("?" for _ in columns) + ")")
        self.delete = f"DELETE FROM {table} WHERE {by_key}"
        self.slot = f"SELECT rowid FROM {table} WHERE {by_key}"
        self.update = (f"UPDATE {table} SET "
                       + ", ".join(f"{quote(c.name)} = ?" for c in columns)
                       + " WHERE rowid = ?")


def encode_dates(values, dates):
    """``values`` with the dates at positions ``dates`` as ISO-8601 text."""
    if not dates:
        return values
    values = list(values)
    for i in dates:
        if values[i] is not None:
            values[i] = values[i].isoformat()
    return values


def _decode(row, dates):
    """``row`` with the ISO-8601 text at positions ``dates`` back as
    dates (a ``datetime`` where the text has a time)."""
    if not dates:
        return row
    row = list(row)
    for i in dates:
        text = row[i]
        if text is not None:
            row[i] = (datetime.date.fromisoformat(text) if len(text) == 10
                      else datetime.datetime.fromisoformat(text))
    return tuple(row)


class Store:
    """A database's rows, generations and request-dedup map in one
    SQLite file under the directory ``path``.

    ``checkpoint_every=N`` checkpoints SQLite's write-ahead file after
    every N commits (None leaves it to SQLite's own auto-checkpoint and
    :meth:`checkpoint`).  ``metrics`` receives the ``wal.appends`` (one
    per commit), ``wal.checkpoints``, ``wal.checkpoint_ms`` and
    ``wal.dedup_hits`` counters.  The same call serves a cold start and
    a restart::

        store = Store("state/", checkpoint_every=256)
        store.attach(database)     # load the file's state, or write it
        database.insert(...)       # committed to the file, then kept
    """

    def __init__(self, path, checkpoint_every=None, metrics=None):
        Path(path).mkdir(parents=True, exist_ok=True)
        self.file = Path(path) / STORE_FILE
        self.checkpoint_every = checkpoint_every
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Rows loaded from the file by :meth:`attach`; None when it
        #: wrote a fresh file instead.
        self.restored = None
        self._lock = threading.Lock()
        self._commits = 0
        self._tables = {}   # name -> TableSql
        try:
            self._conn = sqlite3.connect(
                self.file, isolation_level=None, check_same_thread=False)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS repro_generation "
                "(name TEXT PRIMARY KEY, version INTEGER NOT NULL)")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS repro_request "
                "(id TEXT PRIMARY KEY, result TEXT NOT NULL)")
        except sqlite3.DatabaseError as exc:
            raise WalError(f"{self.file} is not a usable store: {exc}") \
                from None

    # -- attach ------------------------------------------------------------

    def attach(self, database):
        """Make this store ``database``'s record: load the file's rows and
        generations into it when the file holds state (sets
        :attr:`restored`), else write the database's rows to the file.
        Either way its writes commit here from now on.  The database
        must not have served queries yet: a load replaces rows under any
        warmed cache."""
        if database.store is not None:
            raise WalError("database already has a store")
        with self._lock:
            conn = self._conn
            generations = dict(conn.execute(
                "SELECT name, version FROM repro_generation"))
            if generations and set(generations) != set(database.tables):
                raise WalError(
                    f"{self.file} holds tables {sorted(generations)}, "
                    f"the database {sorted(database.tables)}")
            conn.execute("BEGIN")
            for name, table in database.tables.items():
                sql = self._tables[name] = TableSql(table.schema)
                conn.execute(sql.create)
                conn.execute(sql.index)
                if generations:
                    table.restore(
                        [_decode(row, sql.dates)
                         for row in conn.execute(sql.select)],
                        generations[name])
                else:
                    self._write(name, "insert", table.rows)
            if generations:
                self.restored = database.total_rows()
                database._stats.clear()
            else:
                conn.executemany("INSERT INTO repro_generation VALUES (?, ?)",
                                 database.table_generations().items())
            conn.execute("COMMIT")
        database.store = self
        return self.restored

    # -- commits -----------------------------------------------------------

    def _write(self, name, kind, payload):
        """One physical op on table ``name``'s rows in the file."""
        sql = self._tables[name]
        conn = self._conn
        if kind == "insert":
            conn.executemany(sql.insert,
                             [encode_dates(row, sql.dates) for row in payload])
            return
        keys = [encode_dates(key, sql.key_dates)
                for key in (payload if kind == "delete"
                            else [key for key, _ in payload])]
        if kind == "delete":
            conn.executemany(sql.delete, keys)
            return
        # Find every slot by its pre-image key before rewriting any: an
        # update may move a key onto another row's old one.
        slots = [conn.execute(sql.slot, key).fetchone()[0] for key in keys]
        conn.executemany(sql.update, [
            (*encode_dates(row, sql.dates), slot)
            for slot, (_, row) in zip(slots, payload)])

    def commit(self, ops, generations, request_id=None, result=None):
        """Write ``ops`` (``(table, kind, payload)`` triples: inserted
        rows, update pairs or deleted keys), the touched tables'
        ``generations`` and, with a ``request_id``, the request's
        recorded ``result`` as ONE SQLite transaction.  Once this
        returns, the request survives any crash; if it raises, none of
        it is in the file."""
        with self._lock:
            conn = self._conn
            conn.execute("BEGIN")
            try:
                for name, kind, payload in ops:
                    self._write(name, kind, payload)
                conn.executemany(
                    "UPDATE repro_generation SET version = ? WHERE name = ?",
                    [(version, name) for name, version in generations.items()])
                if request_id is not None:
                    conn.execute(
                        "INSERT OR REPLACE INTO repro_request VALUES (?, ?)",
                        (request_id, json.dumps(result)))
                _crash_point("before_commit")
                conn.execute("COMMIT")
            except BaseException:
                if conn.in_transaction:
                    conn.execute("ROLLBACK")
                raise
            _crash_point("after_commit")
            self.metrics.inc("wal.appends")
            self._commits += 1
            if self.checkpoint_every and \
                    self._commits % self.checkpoint_every == 0:
                self._checkpoint()

    def request_result(self, request_id):
        """The recorded result of an already-committed request, or None —
        the exactly-once check, the same before and after a restart."""
        with self._lock:
            row = self._conn.execute(
                "SELECT result FROM repro_request WHERE id = ?",
                (request_id,)).fetchone()
        if row is None:
            return None
        self.metrics.inc("wal.dedup_hits")
        return json.loads(row[0])

    # -- checkpoints and lifecycle -----------------------------------------

    def checkpoint(self):
        """Fold SQLite's write-ahead file into the database file and
        truncate it."""
        with self._lock:
            self._checkpoint()

    def _checkpoint(self):
        started = perf_counter()
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self.metrics.inc("wal.checkpoints")
        self.metrics.inc("wal.checkpoint_ms",
                         (perf_counter() - started) * 1000.0)

    def size_bytes(self):
        """Bytes in SQLite's write-ahead file: what the next checkpoint
        folds in."""
        try:
            return Path(f"{self.file}-wal").stat().st_size
        except FileNotFoundError:
            return 0

    def close(self):
        with self._lock:
            self._conn.close()


__all__ = [
    "CRASH_POINTS", "STORE_FILE", "Store", "TableSql", "encode_dates", "quote",
]
