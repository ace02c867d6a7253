"""A real SQLite backend loaded from the simulated :class:`Database`.

The closest thing the repo has to the paper's commercial RDBMS: the whole
catalog — tables, primary keys, unique sets, and foreign keys from
:mod:`repro.relational.schema` — is emitted as SQLite DDL, rows are bulk
inserted, and every generated partition SQL is executed verbatim after the
small dialect adaptation in :func:`repro.relational.sqltext.to_sqlite`.

Value mapping is deliberately boring so the round trip is lossless:
INTEGER→INTEGER, DECIMAL→REAL, VARCHAR/CHAR→TEXT, and DATE→TEXT holding
the ISO-8601 string (which sorts chronologically, so ORDER BY agrees with
the simulated engine's date ordering).  Rows coming back are converted to
the plan's declared column types before cross-validation.

A database with a :class:`~repro.relational.store.Store` is in SQLite
already: the backend reads the store's file (WAL mode lets a second
connection read while the server commits).  Otherwise it tracks the
per-table generations (:meth:`~repro.relational.database.Database.
table_generations`): a write marks the table stale and it is reloaded
before the next execution, so the mirror follows the
incremental-maintenance workloads without a manual refresh step.

A mirror loads with foreign-key enforcement off (SQLite would otherwise
demand topological insert order); a ``PRAGMA foreign_key_check`` after
every (re)load asserts the declared constraints actually hold — the
in-memory database enforces them on mutation, so a violation here means
the mirror diverged and is raised as a
:class:`~repro.common.errors.BackendMismatchError`.

Thread safety: one connection is shared under a lock
(``check_same_thread=False``), so a backend may be called from several
threads; statements serialize on it and wall-clock measurements stay
per-statement honest.
"""

import datetime
import sqlite3
import threading
from time import perf_counter

from repro.common.errors import BackendMismatchError
from repro.relational.backends.base import Backend
from repro.relational.sqltext import to_sqlite
from repro.relational.store import TableSql, encode_dates, quote
from repro.relational.types import SqlType

_TYPE_MAP = {
    SqlType.INTEGER: "INTEGER",
    SqlType.DECIMAL: "REAL",
    SqlType.VARCHAR: "TEXT",
    SqlType.CHAR: "TEXT",
    SqlType.DATE: "TEXT",
}


class SqliteBackend(Backend):
    """Execute generated SQL on a real SQLite database mirroring
    ``database``.

    Without a store, ``db_path=None`` (the default) uses a private
    ``:memory:`` mirror; a path makes it an ordinary on-disk SQLite file
    (handy for the ``sqlite3`` shell).  Construction is cheap — the
    connection is opened and loaded lazily on first use.
    """

    name = "sqlite"

    def __init__(self, database, db_path=None):
        self.database = database
        self.db_path = db_path
        self._conn = None
        self._generations = {}
        self._lock = threading.Lock()

    # -- schema + data loading --------------------------------------------

    def _ddl(self, schema):
        lines = []
        for column in schema.columns:
            null = "" if column.nullable else " NOT NULL"
            lines.append(
                f"  {quote(column.name)} {_TYPE_MAP[column.sql_type]}{null}"
            )
        lines.append(
            "  PRIMARY KEY (" + ", ".join(quote(k) for k in schema.key) + ")"
        )
        for unique in schema.unique_sets:
            lines.append(
                "  UNIQUE (" + ", ".join(quote(c) for c in unique) + ")"
            )
        for fk in self.database.schema.foreign_keys_from(schema.name):
            lines.append(
                "  FOREIGN KEY ("
                + ", ".join(quote(c) for c in fk.columns)
                + f") REFERENCES {quote(fk.ref_table)} ("
                + ", ".join(quote(c) for c in fk.ref_columns)
                + ")"
            )
        return (
            f"CREATE TABLE IF NOT EXISTS {quote(schema.name)} (\n"
            + ",\n".join(lines)
            + "\n)"
        )

    def _ensure_fresh(self):
        """Open + load on first use; reload any table whose generation
        moved since (a store's file only opens).  Caller holds the lock."""
        store = self.database.store
        if self._conn is None:
            self._conn = sqlite3.connect(
                store.file if store else self.db_path or ":memory:",
                check_same_thread=False,
            )
            for name in [] if store else self.database.schema.table_names:
                self._conn.execute(self._ddl(self.database.schema.table(name)))
            self._generations = {}
        if store:
            return
        current = self.database.table_generations()
        stale = [
            name for name, generation in current.items()
            if self._generations.get(name) != generation
        ]
        if not stale:
            return
        for name in stale:
            self._reload_table(name)
        self._conn.commit()
        violations = self._conn.execute("PRAGMA foreign_key_check").fetchall()
        if violations:
            tables = sorted({row[0] for row in violations})
            raise BackendMismatchError(
                f"sqlite mirror violates declared foreign keys in "
                f"table(s) {', '.join(tables)}",
                backend=self.name, detail=f"{len(violations)} violation(s)",
            )
        self._generations = current

    def _reload_table(self, name):
        table = self.database.table(name)
        sql = TableSql(table.schema)
        self._conn.execute(f"DELETE FROM {quote(name)}")
        self._conn.executemany(
            sql.insert, [encode_dates(row, sql.dates) for row in table.rows])

    # -- execution ---------------------------------------------------------

    def execute_sql(self, plan, sql):
        """Run the dialect-adapted ``sql``; return ``(rows, wall_ms)``
        with values converted back to the plan's column types.  The wall
        measurement covers statement execution and the fetch, not the
        (generation-diffed, usually no-op) freshness check."""
        text = to_sqlite(sql)
        with self._lock:
            self._ensure_fresh()
            started = perf_counter()
            raw = self._conn.execute(text).fetchall()
            wall_ms = (perf_counter() - started) * 1000.0
        types = [column.sql_type for column in plan.columns()]
        return [_convert_row(types, row) for row in raw], wall_ms

    def close(self):
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
                self._generations = {}


def _convert_row(types, row):
    return tuple(
        _convert_value(sql_type, value)
        for sql_type, value in zip(types, row)
    )


def _convert_value(sql_type, value):
    if value is None:
        return None
    if sql_type is SqlType.DATE:
        return datetime.date.fromisoformat(value)
    if sql_type is SqlType.INTEGER:
        return int(value)
    if sql_type is SqlType.DECIMAL:
        return float(value)
    return value


__all__ = ["SqliteBackend"]
