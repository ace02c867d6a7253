"""In-memory table storage with key enforcement and hash indexes."""

from operator import itemgetter

from repro.common.errors import SchemaError


def hash_rows(rows, positions):
    """Hash ``rows`` into ``{key: [rows]}``, in row order, by the values at
    ``positions``: the value itself for one position, the tuple of values
    for several (``()`` for none).  A row with a NULL in a key position is
    left out — a NULL joins nothing — so a probe with a NULL key misses."""
    index = {}
    get = index.get
    if len(positions) == 1:
        position = positions[0]
        for row in rows:
            key = row[position]
            if key is not None:
                bucket = get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
        return index
    key_of = itemgetter(*positions) if positions else _no_key
    for row in rows:
        key = key_of(row)
        if None not in key:
            bucket = get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
    return index


def _no_key(row):
    return ()


class Table:
    """A bag of rows conforming to a :class:`TableSchema`.

    Rows are plain tuples in schema column order.  The primary key is
    enforced on insert.  Hash indexes over arbitrary column subsets and
    each column's value types are built lazily and kept until the next
    write; the batch engine probes the indexes where a join's build side
    is a base table and sorts by the types.
    """

    def __init__(self, schema):
        self.schema = schema
        self.rows = []
        #: Monotonic mutation counter; feeds the database generation that
        #: versions :class:`repro.relational.cache.PlanResultCache` keys.
        self.version = 0
        self._key_index = {}
        self._indexes = {}
        self._unique_indexes = {}

    def __len__(self):
        return len(self.rows)

    def insert(self, *values, **named):
        """Insert one row, given positionally or by column name."""
        row = self.prepare_row(values, named)
        return self._append_row(row)

    def prepare_row(self, values=(), named=None):
        """Validate one prospective row without committing it.

        Performs everything :meth:`insert` would check — arity, types,
        NOT NULL, key and unique collisions against the current contents —
        and returns the normalized row tuple, touching no table state, so
        a rejected insert never reaches the table or the store.
        """
        named = named or {}
        if values and named:
            raise SchemaError("pass values positionally or by name, not both")
        if named:
            missing = [c.name for c in self.schema.columns if c.name not in named]
            if missing:
                raise SchemaError(
                    f"{self.schema.name}: missing values for {missing}"
                )
            extra = [n for n in named if not self.schema.has_column(n)]
            if extra:
                raise SchemaError(f"{self.schema.name}: unknown columns {extra}")
            values = tuple(named[c.name] for c in self.schema.columns)
        if len(values) != len(self.schema.columns):
            raise SchemaError(
                f"{self.schema.name}: expected {len(self.schema.columns)} "
                f"values, got {len(values)}"
            )
        row = tuple(values)
        self._check_types(row)
        key = tuple(row[self.schema.column_index(k)] for k in self.schema.key)
        if key in self._key_index:
            raise SchemaError(f"{self.schema.name}: duplicate key {key}")
        for unique_set in self.schema.unique_sets:
            candidate = tuple(
                row[self.schema.column_index(c)] for c in unique_set
            )
            if candidate in self._unique_indexes.get(unique_set, ()):
                raise SchemaError(
                    f"{self.schema.name}: duplicate value {candidate} for "
                    f"unique columns {unique_set}"
                )
        return row

    def _append_row(self, row):
        """Commit a row already validated by :meth:`prepare_row`."""
        key = tuple(row[self.schema.column_index(k)] for k in self.schema.key)
        self._key_index[key] = row
        for unique_set in self.schema.unique_sets:
            candidate = tuple(
                row[self.schema.column_index(c)] for c in unique_set
            )
            self._unique_indexes.setdefault(unique_set, set()).add(candidate)
        self.rows.append(row)
        self._indexes.clear()
        self.version += 1
        return row

    def _key_positions(self):
        return [self.schema.column_index(k) for k in self.schema.key]

    def _check_types(self, row):
        for column, value in zip(self.schema.columns, row):
            if value is None:
                if not column.nullable:
                    raise SchemaError(
                        f"{self.schema.name}.{column.name} is NOT NULL"
                    )
                continue
            if not column.sql_type.accepts(value):
                raise SchemaError(
                    f"{self.schema.name}.{column.name}: {value!r} is not a "
                    f"valid {column.sql_type.value}"
                )

    def _predicate(self, where):
        """Compile a mutation's ``where`` — a callable receiving the row as
        a ``{column: value}`` dict — into a ``row -> bool`` closure."""
        names = self.schema.column_names

        def pred(row):
            return bool(where(dict(zip(names, row))))
        return pred

    def _reindexed(self, rows):
        """Key/unique indexes for ``rows``, raising :class:`SchemaError`
        on a duplicate — computed aside so a failing mutation commits
        nothing."""
        key_positions = [self.schema.column_index(k) for k in self.schema.key]
        unique_positions = {
            unique_set: [self.schema.column_index(c) for c in unique_set]
            for unique_set in self.schema.unique_sets
        }
        key_index = {}
        unique_indexes = {u: set() for u in self.schema.unique_sets}
        for row in rows:
            key = tuple(row[p] for p in key_positions)
            if key in key_index:
                raise SchemaError(f"{self.schema.name}: duplicate key {key}")
            key_index[key] = row
            for unique_set, positions in unique_positions.items():
                candidate = tuple(row[p] for p in positions)
                index = unique_indexes[unique_set]
                if candidate in index:
                    raise SchemaError(
                        f"{self.schema.name}: duplicate value {candidate} "
                        f"for unique columns {unique_set}"
                    )
                index.add(candidate)
        return key_index, unique_indexes

    def _commit(self, rows, key_index, unique_indexes):
        self.rows = rows
        self._key_index = key_index
        self._unique_indexes = unique_indexes
        self._indexes.clear()
        self.version += 1

    def update(self, where, changes):
        """Update the rows matching ``where`` in place; returns the count.

        ``changes`` maps column names to new values — or to callables
        receiving the current row as a ``{column: value}`` dict and
        returning the new value.  Row *order is preserved* (updated rows
        keep their slots), types and key/unique constraints are
        re-validated, and nothing is committed if any row would violate
        them.  A successful update with at least one matched row bumps
        :attr:`version`.
        """
        plan = self.plan_update(where, changes)
        if plan is None:
            return 0
        return self.commit_plan(plan)

    def plan_update(self, where, changes):
        """The fully validated physical plan of an update, uncommitted.

        Returns ``None`` when no row matches; otherwise a plan tuple for
        :meth:`commit_plan` whose ``pairs`` element maps each matched
        row's *pre-image* primary key to its replacement row — the
        value-based delta a store commits.
        """
        pred = self._predicate(where)
        change_plan = [
            (self.schema.column_index(name), value)
            for name, value in changes.items()
        ]
        names = self.schema.column_names
        key_positions = self._key_positions()
        new_rows = []
        pairs = []
        matched = 0
        for row in self.rows:
            if pred(row):
                matched += 1
                values = list(row)
                for position, value in change_plan:
                    if callable(value):
                        value = value(dict(zip(names, row)))
                    values[position] = value
                new = tuple(values)
                self._check_types(new)
                pairs.append((tuple(row[p] for p in key_positions), new))
                row = new
            new_rows.append(row)
        if not matched:
            return None
        key_index, unique_indexes = self._reindexed(new_rows)
        return (new_rows, pairs, matched, key_index, unique_indexes)

    def delete(self, where):
        """Delete the rows matching ``where``; returns the count deleted.

        The surviving rows keep their relative order, so scans after a
        delete are a subsequence of the scans before it.  A delete that
        removes at least one row bumps :attr:`version`.
        """
        plan = self.plan_delete(where)
        if plan is None:
            return 0
        return self.commit_plan(plan)

    def plan_delete(self, where):
        """The fully validated physical plan of a delete, uncommitted.

        Returns ``None`` when no row matches; otherwise a plan tuple for
        :meth:`commit_plan` whose ``pairs`` element holds the primary
        keys of the victims (the delta a store commits).
        """
        pred = self._predicate(where)
        key_positions = self._key_positions()
        kept = []
        keys = []
        for row in self.rows:
            if pred(row):
                keys.append(tuple(row[p] for p in key_positions))
            else:
                kept.append(row)
        if not keys:
            return None
        key_index, unique_indexes = self._reindexed(kept)
        return (kept, keys, len(keys), key_index, unique_indexes)

    def commit_plan(self, plan):
        """Commit a plan from :meth:`plan_update` / :meth:`plan_delete`;
        returns the matched/removed count.  Bumps :attr:`version` once,
        exactly as the one-shot :meth:`update` / :meth:`delete` would."""
        new_rows, _, count, key_index, unique_indexes = plan
        self._commit(new_rows, key_index, unique_indexes)
        return count

    def restore(self, rows, version):
        """Physically replace the whole contents and pin the generation
        counter — how a restart loads a table from the store, and how a
        failed transaction rolls one back.  Indexes are rebuilt
        (validating key/unique integrity) and :attr:`version` is set
        *exactly*, so a restarted database's generation vector matches
        the committed one bit for bit."""
        rows = [tuple(row) for row in rows]
        key_index, unique_indexes = self._reindexed(rows)
        self.rows = rows
        self._key_index = key_index
        self._unique_indexes = unique_indexes
        self._indexes.clear()
        self.version = version

    def lookup_key(self, key_values):
        """Return the row with the given primary-key values, or None."""
        return self._key_index.get(tuple(key_values))

    def index_on(self, column_names):
        """The hash index of the rows on ``column_names``, built on first
        use and dropped by every write: :func:`hash_rows` by their
        positions (scalar keys for one column, tuples for several; rows
        with a NULL key left out).  Treat it as immutable."""
        key = tuple(column_names)
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = hash_rows(
                self.rows, [self.schema.column_index(name) for name in key]
            )
        return index

    def value_types(self, name):
        """The types of the values in column ``name`` — ``NoneType`` among
        them when it holds a NULL, none for an empty table: one C-level
        pass on first use, kept beside :meth:`index_on`'s indexes and
        dropped with them by every write.  The batch engine's sort reads
        its key columns' types here instead of from the rows it sorts."""
        key = (type, name)
        kinds = self._indexes.get(key)
        if kinds is None:
            column = map(itemgetter(self.schema.column_index(name)), self.rows)
            kinds = self._indexes[key] = frozenset(map(type, column))
        return kinds

    def column_values(self, name):
        """All values of one column, in row order."""
        position = self.schema.column_index(name)
        return [row[position] for row in self.rows]

    def average_row_width(self):
        """Observed average row width in bytes (0 for an empty table)."""
        if not self.rows:
            return 0.0
        total = 0
        for row in self.rows:
            for column, value in zip(self.schema.columns, row):
                total += column.sql_type.value_width(value)
        return total / len(self.rows)
