"""The database catalog: tables plus statistics and the mutation API.

Statistics (cardinality, per-column distinct counts, average widths, null
fractions) feed the :class:`repro.relational.estimator.CostEstimator`, the
"oracle" the greedy planner consults.  They are computed once per table via
:meth:`Database.analyze`, mirroring an RDBMS's ``ANALYZE``, and refreshed
lazily when the table's generation moves.

Mutations (:meth:`Database.insert` / :meth:`Database.update` /
:meth:`Database.delete`) bump **per-table** generation counters
(:attr:`repro.relational.table.Table.version`).  The result caches key on
the generations of exactly the tables a plan reads
(:meth:`dependency_key`), so a write invalidates only the cached results
that actually depend on the touched tables — the incremental-maintenance
story of the delta-propagation layer.  The summed :attr:`generation`
survives as the coarse whole-database version.
"""

import itertools
from contextlib import contextmanager
from dataclasses import dataclass

from repro.common.errors import SchemaError, WalError
from repro.relational.dependencies import SORTED_TABLES
from repro.relational.table import Table
from repro.relational.types import SqlType


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column."""

    n_distinct: int
    null_fraction: float
    avg_width: float


@dataclass(frozen=True)
class TableStats:
    """Statistics for one table."""

    row_count: int
    avg_row_width: float
    columns: dict  # column name -> ColumnStats

    def column(self, name):
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"no statistics for column {name!r}") from None


class Transaction:
    """The recorder :meth:`Database.transaction` yields: the group's
    physical ops, each touched table's rows before the group (for the
    rollback), and the :attr:`result` the caller may set (recorded under
    the transaction's ``request_id`` for exactly-once retries)."""

    __slots__ = ("ops", "before", "result")

    def __init__(self):
        self.ops = []
        self.before = {}
        self.result = None

    def record(self, table, kind, payload):
        name = table.schema.name
        if name not in self.before:
            self.before[name] = list(table.rows)
        self.ops.append((name, kind, payload))


class Database:
    """A named collection of tables with integrity checking and statistics."""

    #: Distinguishes database *instances* in cache keys (a plain counter,
    #: unlike ``id()`` never reused within a process).
    _tokens = itertools.count()

    def __init__(self, schema):
        self.schema = schema
        self.tables = {name: Table(schema.table(name)) for name in schema.table_names}
        self._stats = {}  # table name -> (table version, TableStats)
        self._token = next(Database._tokens)
        #: The :class:`~repro.relational.store.Store` every write commits
        #: to, or None when writes are memory-only.
        self.store = None
        self._txn = None

    def table_generations(self):
        """The per-table generation map ``{table name: version}`` — the
        vector a sweep pins to detect mid-run mutations and the caches
        diff to invalidate only dependent entries."""
        return {name: table.version for name, table in self.tables.items()}

    def dependency_key(self, tables):
        """The cache-key component identifying the current contents of
        ``tables`` (an iterable of table names): the instance token plus
        each table's generation, sorted by name.  A mutation of any
        *other* table leaves this key — and every cache entry under it —
        valid.  A set :func:`~repro.relational.dependencies.plan_tables`
        made has its names sorted once."""
        tables_ = self.tables
        names = SORTED_TABLES.get(tables) if type(tables) is frozenset \
            else None
        return (
            self._token,
            tuple([(name, tables_[name].version)
                   for name in names or sorted(tables)]),
        )

    def table(self, name):
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def insert(self, table_name, *values, **named):
        """Insert one row (validated first, so a rejected row reaches
        neither the table nor the store); returns the row."""
        table = self.table(table_name)
        if self.store is None:
            return table.insert(*values, **named)
        row = table.prepare_row(values, named)
        return self._write(table, "insert", [row], table._append_row, row)

    def update(self, table_name, where, changes):
        """Update rows of ``table_name`` matching ``where``; returns the
        matched-row count.  ``where`` is a callable over the row dict;
        ``changes`` maps columns
        to new values (or callables over the row dict).  Order-preserving:
        updated rows keep their slots, so unaffected plans replay
        byte-identically.  A store receives the *computed* rows, never
        the callables."""
        table = self.table(table_name)
        if self.store is None:
            return table.update(where, changes)
        plan = table.plan_update(where, changes)
        if plan is None:
            return 0
        return self._write(table, "update", plan[1], table.commit_plan, plan)

    def delete(self, table_name, where):
        """Delete rows of ``table_name`` matching ``where``; returns the
        deleted-row count.  Surviving rows keep their relative order.  A
        store receives the victims' primary keys."""
        table = self.table(table_name)
        if self.store is None:
            return table.delete(where)
        plan = table.plan_delete(where)
        if plan is None:
            return 0
        return self._write(table, "delete", plan[1], table.commit_plan, plan)

    def _write(self, table, kind, payload, apply, argument):
        """The one write path to the store: the physical op ``(kind,
        payload)`` joins the open transaction, or commits as a one-op
        transaction of its own, and ``apply(argument)`` changes the
        table in memory."""
        if self._txn is None:
            with self.transaction():
                return self._write(table, kind, payload, apply, argument)
        self._txn.record(table, kind, payload)
        return apply(argument)

    @contextmanager
    def transaction(self, request_id=None):
        """Group several mutations into ONE commit of the store.

        Inside the block mutations apply eagerly (reads see them) and
        their physical ops are buffered; on clean exit the store commits
        them, the touched tables' generations and ``request_id`` with the
        recorder's ``result`` (the exactly-once record) as one SQLite
        transaction.  If the block raises or the commit fails, the
        touched tables are rolled back to where the block found them:
        the in-memory database never keeps what the file does not.
        Without a store the block is a plain pass-through recorder, and
        what it applied stays.
        Nesting raises :class:`~repro.common.errors.WalError`.
        """
        if self._txn is not None:
            raise WalError("transaction() groups do not nest")
        txn = self._txn = Transaction()
        try:
            yield txn
            if self.store is not None and (txn.ops or request_id is not None):
                self.store.commit(
                    txn.ops,
                    {name: self.tables[name].version for name in txn.before},
                    request_id, txn.result)
        except BaseException:
            # Back to the old rows under a new generation: nothing cached
            # over the undone ones can be served again.
            for name, rows in txn.before.items():
                table = self.tables[name]
                table.restore(rows, table.version + 1)
            raise
        finally:
            self._txn = None

    def check_foreign_keys(self):
        """Verify every foreign key; raise :class:`SchemaError` on the first
        violation.  Returns the number of references checked."""
        checked = 0
        for fk in self.schema.foreign_keys:
            source = self.table(fk.table)
            target = self.table(fk.ref_table)
            positions = [source.schema.column_index(c) for c in fk.columns]
            for row in source.rows:
                ref = tuple(row[p] for p in positions)
                if any(v is None for v in ref):
                    if fk.not_null:
                        raise SchemaError(
                            f"{fk.table}.{fk.columns}: NULL in NOT NULL foreign key"
                        )
                    continue
                if target.lookup_key(ref) is None:
                    raise SchemaError(
                        f"{fk.table}{fk.columns} -> {fk.ref_table}: "
                        f"dangling reference {ref}"
                    )
                checked += 1
        return checked

    def analyze(self):
        """Compute and cache statistics for every table."""
        for name, table in self.tables.items():
            self._stats[name] = (table.version, _compute_stats(table))
        return {name: stats for name, (_, stats) in self._stats.items()}

    def stats(self, table_name):
        """Statistics for one table, computed on first use and refreshed
        when the table's generation has moved since (so the planner's
        oracle never reasons from pre-mutation cardinalities)."""
        table = self.table(table_name)
        cached = self._stats.get(table_name)
        if cached is None or cached[0] != table.version:
            cached = (table.version, _compute_stats(table))
            self._stats[table_name] = cached
        return cached[1]

    def total_rows(self):
        return sum(len(t) for t in self.tables.values())

    def total_bytes(self):
        """Approximate data volume, used to describe configurations."""
        return sum(
            len(table) * table.average_row_width()
            for table in self.tables.values()
        )

    def __repr__(self):
        parts = ", ".join(f"{n}:{len(t)}" for n, t in self.tables.items())
        return f"Database({parts})"


def _compute_stats(table):
    columns = {}
    for column in table.schema.columns:
        values = table.column_values(column.name)
        non_null = [v for v in values if v is not None]
        n = len(values)
        columns[column.name] = ColumnStats(
            n_distinct=len(set(non_null)),
            null_fraction=0.0 if n == 0 else (n - len(non_null)) / n,
            avg_width=(
                sum(column.sql_type.value_width(v) for v in non_null) / len(non_null)
                if non_null
                else 0.0
            ),
        )
    return TableStats(
        row_count=len(table),
        avg_row_width=table.average_row_width(),
        columns=columns,
    )


def synthesize_rows(database, table_name, count, seed=0):
    """``count`` schema-valid rows ready to insert into ``table_name``.

    The deterministic delta generator behind ``repro mutate`` and the IVM
    benchmark: foreign-key columns pick existing referenced keys (so the
    new rows *join* — the delta is visible in materialized views), free
    key columns take fresh values past the current maximum, and the
    composed key tuple is advanced past any collision.  Returns a list of
    row tuples; insert them with :meth:`Database.insert`.
    """
    table = database.table(table_name)
    schema = table.schema
    fk_columns = {}
    for fk in database.schema.foreign_keys:
        if fk.table != table_name:
            continue
        for column, ref_column in zip(fk.columns, fk.ref_columns):
            fk_columns[column] = (fk.ref_table, ref_column)
    key_positions = {schema.column_index(k) for k in schema.key}
    fresh_base = {}
    for position, column in enumerate(schema.columns):
        if position in key_positions and column.name not in fk_columns:
            existing = [
                v for v in table.column_values(column.name)
                if isinstance(v, int)
            ]
            fresh_base[column.name] = (max(existing) + 1) if existing else 1

    def candidate(i, shift):
        values = []
        for position, column in enumerate(schema.columns):
            name = column.name
            if name in fk_columns:
                ref_table, ref_column = fk_columns[name]
                pool = database.table(ref_table).column_values(ref_column)
                if not pool:
                    raise SchemaError(
                        f"cannot synthesize {table_name} rows: referenced "
                        f"table {ref_table} is empty"
                    )
                values.append(pool[(seed + i + shift) % len(pool)])
            elif name in fresh_base:
                values.append(fresh_base[name] + i)
            elif column.sql_type is SqlType.INTEGER:
                values.append(seed + i + 1)
            elif column.sql_type is SqlType.DECIMAL:
                values.append(float(seed + i + 1))
            elif column.sql_type is SqlType.DATE:
                import datetime

                values.append(
                    datetime.date(1995, 1, 1)
                    + datetime.timedelta(days=(seed + i) % 365)
                )
            else:
                values.append(f"delta-{seed}-{i}")
        return tuple(values)

    key_index_positions = [schema.column_index(k) for k in schema.key]
    taken = set(
        tuple(row[p] for p in key_index_positions) for row in table.rows
    )
    rows = []
    for i in range(count):
        for shift in range(count * 8 + 64):
            row = candidate(i, shift)
            key = tuple(row[p] for p in key_index_positions)
            if key not in taken:
                taken.add(key)
                rows.append(row)
                break
        else:
            raise SchemaError(
                f"cannot synthesize a fresh key for {table_name} "
                f"(row {i} of {count})"
            )
    return rows
