"""Tests for table storage (repro.relational.table)."""

import pytest

from repro.common.errors import SchemaError
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import SqlType


@pytest.fixture
def table():
    schema = TableSchema(
        "People",
        [
            Column("id", SqlType.INTEGER),
            Column("name", SqlType.VARCHAR),
            Column("age", SqlType.INTEGER, nullable=True),
        ],
        key=["id"],
        unique_sets=[("name",)],
    )
    return Table(schema)


class TestInsert:
    def test_positional(self, table):
        row = table.insert(1, "ada", 36)
        assert row == (1, "ada", 36)
        assert len(table) == 1

    def test_named(self, table):
        table.insert(name="bob", id=2, age=None)
        assert table.rows[0] == (2, "bob", None)

    def test_mixing_positional_and_named_rejected(self, table):
        with pytest.raises(SchemaError):
            table.insert(1, name="x")

    def test_missing_named_value(self, table):
        with pytest.raises(SchemaError, match="missing"):
            table.insert(id=1, name="x")  # age missing

    def test_unknown_named_column(self, table):
        with pytest.raises(SchemaError, match="unknown"):
            table.insert(id=1, name="x", age=1, extra=2)

    def test_wrong_arity(self, table):
        with pytest.raises(SchemaError, match="expected 3"):
            table.insert(1, "x")

    def test_type_check(self, table):
        with pytest.raises(SchemaError, match="not a valid"):
            table.insert(1, 99, 20)

    def test_not_null_enforced(self, table):
        with pytest.raises(SchemaError, match="NOT NULL"):
            table.insert(None, "x", 1)

    def test_nullable_allowed(self, table):
        table.insert(1, "x", None)

    def test_duplicate_key(self, table):
        table.insert(1, "x", 1)
        with pytest.raises(SchemaError, match="duplicate key"):
            table.insert(1, "y", 2)

    def test_unique_set_enforced(self, table):
        table.insert(1, "x", 1)
        with pytest.raises(SchemaError, match="unique"):
            table.insert(2, "x", 2)


class TestLookup:
    def test_lookup_key(self, table):
        table.insert(7, "g", 1)
        assert table.lookup_key((7,)) == (7, "g", 1)
        assert table.lookup_key((8,)) is None

    def test_index_on(self, table):
        """One column keys by the value itself, several by the tuple; a
        row with a NULL key component is not indexed (it joins nothing)."""
        table.insert(1, "a", 30)
        table.insert(2, "b", 30)
        table.insert(3, "c", 40)
        table.insert(4, "d", None)
        index = table.index_on(["age"])
        assert [row[0] for row in index[30]] == [1, 2]
        assert len(index[40]) == 1
        assert None not in index and len(index) == 2
        pairs = table.index_on(["name", "age"])
        assert pairs[("a", 30)] == [(1, "a", 30)]
        assert ("d", None) not in pairs and len(pairs) == 3
        assert table.index_on(["age"]) is index     # built once

    def test_index_invalidated_on_insert(self, table):
        table.insert(1, "a", 30)
        table.index_on(["age"])
        table.insert(2, "b", 30)
        assert len(table.index_on(["age"])[30]) == 2

    def test_column_values(self, table):
        table.insert(1, "a", 30)
        table.insert(2, "b", None)
        assert table.column_values("age") == [30, None]


class TestWidths:
    def test_empty_width(self, table):
        assert table.average_row_width() == 0.0

    def test_average_row_width(self, table):
        table.insert(1, "abcd", None)  # 4 + 4 + 0
        assert table.average_row_width() == pytest.approx(8.0)

    def test_iteration(self, table):
        table.insert(1, "a", 1)
        assert table.rows == [(1, "a", 1)]
