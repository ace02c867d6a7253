"""Tests for schema definitions (repro.relational.schema)."""

import pytest

from repro.common.errors import SchemaError
from repro.relational.schema import (
    Column,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
)
from repro.relational.types import SqlType


def _table(name="T", key=("id",), unique_sets=()):
    return TableSchema(
        name,
        [Column("id", SqlType.INTEGER), Column("name", SqlType.VARCHAR)],
        key=key,
        unique_sets=unique_sets,
    )


class TestColumn:
    def test_valid(self):
        column = Column("id", SqlType.INTEGER)
        assert column.name == "id"
        assert not column.nullable

    def test_invalid_name(self):
        with pytest.raises(SchemaError):
            Column("1bad", SqlType.INTEGER)
        with pytest.raises(SchemaError):
            Column("", SqlType.INTEGER)


class TestTableSchema:
    def test_basic(self):
        table = _table()
        assert table.column_names == ("id", "name")
        assert table.column("name").sql_type is SqlType.VARCHAR
        assert table.column_index("name") == 1
        assert table.has_column("id")
        assert not table.has_column("other")

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            _table().column("missing")

    def test_duplicate_columns(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "T",
                [Column("a", SqlType.INTEGER), Column("a", SqlType.INTEGER)],
                key=["a"],
            )

    def test_key_must_exist(self):
        with pytest.raises(SchemaError):
            _table(key=("nope",))

    def test_key_required(self):
        with pytest.raises(SchemaError):
            _table(key=())

    def test_unique_sets_validated(self):
        table = _table(unique_sets=[("name",)])
        assert table.unique_sets == (("name",),)
        with pytest.raises(SchemaError):
            _table(unique_sets=[("missing",)])


class TestForeignKey:
    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            ForeignKey("A", ("x", "y"), "B", ("z",))


class TestDatabaseSchema:
    def test_add_and_lookup(self):
        schema = DatabaseSchema([_table("A"), _table("B")])
        assert schema.table("A").name == "A"
        assert schema.has_table("B")
        assert set(schema.table_names) == {"A", "B"}

    def test_duplicate_table(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([_table("A"), _table("A")])

    def test_unknown_table(self):
        with pytest.raises(SchemaError):
            DatabaseSchema().table("missing")

    def test_foreign_key_validation(self):
        schema = DatabaseSchema([_table("A"), _table("B")])
        schema.add_foreign_key(ForeignKey("A", ("id",), "B", ("id",)))
        assert len(schema.foreign_keys_from("A")) == 1
        assert schema.foreign_keys_from("B") == []

    def test_foreign_key_must_reference_primary_key(self):
        schema = DatabaseSchema([_table("A"), _table("B")])
        with pytest.raises(SchemaError):
            schema.add_foreign_key(ForeignKey("A", ("id",), "B", ("name",)))

    def test_foreign_key_unknown_column(self):
        schema = DatabaseSchema([_table("A"), _table("B")])
        with pytest.raises(SchemaError):
            schema.add_foreign_key(ForeignKey("A", ("zz",), "B", ("id",)))
