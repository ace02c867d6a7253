"""Relational schema definition: columns, tables, keys, foreign keys.

The paper's view-tree labeling step (Sec. 3.5) needs the target database's
constraints — keys and referential constraints — to decide the C1/C2
conditions.  ``DatabaseSchema`` therefore records primary keys and foreign
keys (with a ``not_null`` flag on the referencing columns: a non-null,
enforced foreign key is what makes the inclusion dependency C2 hold).
"""

from dataclasses import dataclass

from repro.common.errors import SchemaError
from repro.relational.types import SqlType


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    sql_type: SqlType
    nullable: bool = False

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")


class TableSchema:
    """Schema of a single table: ordered columns plus a primary key.

    The primary key mirrors the ``*``-prefixed attributes of the paper's
    datalog-style schema (Fig. 1).  ``unique_sets`` declares additional
    candidate keys (e.g. ``Nation.name``), which license the paper's
    Sec. 3.1 Skolem-argument simplification ("we assume that name
    functionally determines nationkey").
    """

    def __init__(self, name, columns, key, unique_sets=()):
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid table name: {name!r}")
        self.name = name
        self.columns = tuple(columns)
        self.key = tuple(key)
        self.unique_sets = tuple(tuple(u) for u in unique_sets)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {name}")
        self._by_name = {c.name: c for c in self.columns}
        for key_col in self.key:
            if key_col not in self._by_name:
                raise SchemaError(f"key column {key_col!r} not in table {name}")
        if not self.key:
            raise SchemaError(f"table {name} must declare a primary key")
        for unique_set in self.unique_sets:
            for col in unique_set:
                if col not in self._by_name:
                    raise SchemaError(
                        f"unique column {col!r} not in table {name}"
                    )

    @property
    def column_names(self):
        return tuple(c.name for c in self.columns)

    def column(self, name):
        """Look up a column by name, raising :class:`SchemaError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name} has no column {name!r}") from None

    def has_column(self, name):
        return name in self._by_name

    def column_index(self, name):
        self.column(name)
        return self.column_names.index(name)


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint ``table(columns) -> ref_table(ref_columns)``.

    ``not_null`` records whether the referencing columns are non-nullable;
    together with enforcement this is what licenses the C2 inclusion
    dependency of Sec. 3.5 (every parent tuple has a matching child tuple).
    """

    table: str
    columns: tuple
    ref_table: str
    ref_columns: tuple
    not_null: bool = True

    def __post_init__(self):
        if len(self.columns) != len(self.ref_columns):
            raise SchemaError(
                f"foreign key {self.table}{self.columns} -> "
                f"{self.ref_table}{self.ref_columns}: arity mismatch"
            )


class DatabaseSchema:
    """A set of table schemas plus foreign keys."""

    def __init__(self, tables=(), foreign_keys=()):
        self._tables = {}
        self.foreign_keys = []
        for table in tables:
            self.add_table(table)
        for foreign_key in foreign_keys:
            self.add_foreign_key(foreign_key)

    def add_table(self, table_schema):
        if table_schema.name in self._tables:
            raise SchemaError(f"duplicate table {table_schema.name}")
        self._tables[table_schema.name] = table_schema

    def add_foreign_key(self, foreign_key):
        table = self.table(foreign_key.table)
        ref = self.table(foreign_key.ref_table)
        for col in foreign_key.columns:
            table.column(col)
        for col in foreign_key.ref_columns:
            ref.column(col)
        if tuple(foreign_key.ref_columns) != tuple(ref.key):
            raise SchemaError(
                f"foreign key must reference the primary key of {ref.name}"
            )
        self.foreign_keys.append(foreign_key)

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def has_table(self, name):
        return name in self._tables

    @property
    def table_names(self):
        return tuple(self._tables)

    def structure(self):
        """What view trees and labels depend on, hashable: tables (columns,
        keys, unique sets) and foreign keys (``not_null`` too); per call."""
        tables = tuple((t.name, t.columns, t.key, t.unique_sets)
                       for t in self._tables.values())
        return tables, tuple(self.foreign_keys)

    def foreign_keys_from(self, table_name):
        """Foreign keys whose referencing side is ``table_name``."""
        return [fk for fk in self.foreign_keys if fk.table == table_name]
