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
        self._wal = None
        self._txn = None

    @property
    def wal(self):
        """The attached :class:`~repro.relational.wal.WriteAheadLog`, or
        None when mutations are memory-only."""
        return self._wal

    def attach_wal(self, wal):
        """Bind this database to a write-ahead log: every subsequent
        mutation is logged + fsynced before it is applied.  Use
        :meth:`~repro.relational.wal.WriteAheadLog.attach` (which calls
        this) so restore-on-restart happens too."""
        if self._wal is not None:
            raise WalError("database is already attached to a WAL")
        self._wal = wal

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
        valid."""
        tables_ = self.tables
        return (
            self._token,
            tuple([(name, tables_[name].version) for name in sorted(tables)]),
        )

    def table(self, name):
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def insert(self, table_name, *values, **named):
        """Insert one row.  With a WAL attached the physical row is
        logged and fsynced *before* it is applied (log-then-apply), so a
        crash after this returns cannot lose the write."""
        table = self.table(table_name)
        if self._wal is None:
            return table.insert(*values, **named)
        from repro.relational import wal as _wal

        row = table.prepare_row(values, named)
        op = _wal.insert_op(table_name, row, table.version + 1)
        if self._txn is not None:
            table._append_row(row)
            self._txn.ops.append(op)
            return row
        self._wal.append([op])
        table._append_row(row)
        self._wal.maybe_checkpoint(self)
        return row

    def update(self, table_name, where, changes):
        """Update rows of ``table_name`` matching ``where``; returns the
        matched-row count.  ``where`` is a callable over the row dict;
        ``changes`` maps columns
        to new values (or callables over the row dict).  Order-preserving:
        updated rows keep their slots, so unaffected plans replay
        byte-identically.  With a WAL attached the *computed* new rows
        are logged value-by-value before the commit — replay never
        re-runs the callables."""
        table = self.table(table_name)
        if self._wal is None:
            return table.update(where, changes)
        from repro.relational import wal as _wal

        plan = table.plan_update(where, changes)
        if plan is None:
            return 0
        op = _wal.update_op(table_name, plan[1], table.version + 1)
        if self._txn is not None:
            count = table.commit_plan(plan)
            self._txn.ops.append(op)
            return count
        self._wal.append([op])
        count = table.commit_plan(plan)
        self._wal.maybe_checkpoint(self)
        return count

    def delete(self, table_name, where):
        """Delete rows of ``table_name`` matching ``where``; returns the
        deleted-row count.  Surviving rows keep their relative order.
        With a WAL attached the victims' primary keys are logged before
        the commit."""
        table = self.table(table_name)
        if self._wal is None:
            return table.delete(where)
        from repro.relational import wal as _wal

        plan = table.plan_delete(where)
        if plan is None:
            return 0
        op = _wal.delete_op(table_name, plan[1], table.version + 1)
        if self._txn is not None:
            count = table.commit_plan(plan)
            self._txn.ops.append(op)
            return count
        self._wal.append([op])
        count = table.commit_plan(plan)
        self._wal.maybe_checkpoint(self)
        return count

    @contextmanager
    def transaction(self, request_id=None):
        """Group several mutations into ONE durable commit record.

        Inside the block mutations apply eagerly (reads see them) but
        their physical ops are buffered; on clean exit they are appended
        to the WAL as a single checksummed record — the group is atomic
        on disk: a crash mid-block loses all of it, a crash after the
        block's fsync loses none.  ``request_id`` (with the recorder's
        ``result`` attribute) feeds the exactly-once dedup map.  Without
        an attached WAL the block is a plain pass-through recorder.
        Nesting raises :class:`~repro.common.errors.WalError`; an
        exception inside the block logs nothing (in-memory effects of
        already-applied ops remain — callers treat that as a failed
        request and do not acknowledge it).
        """
        from repro.relational.wal import WalTransaction

        if self._txn is not None:
            raise WalError("transaction() groups do not nest")
        txn = WalTransaction(request_id)
        self._txn = txn
        try:
            yield txn
        except BaseException:
            self._txn = None
            raise
        self._txn = None
        if self._wal is not None and (txn.ops or request_id is not None):
            self._wal.append(
                txn.ops, request_id=request_id, result=txn.result
            )
            self._wal.maybe_checkpoint(self)

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
