"""Tests for SQL text rendering (repro.relational.sqltext)."""

import pytest

from repro.common.errors import QueryError
from repro.relational.algebra import (
    ColumnRef,
    Comparison,
    ConstantColumn,
    Distinct,
    Filter,
    InnerJoin,
    JoinBranch,
    LeftOuterJoin,
    Literal,
    OuterUnion,
    Project,
    ProjectItem,
    Scan,
    Sort,
)
from repro.relational.sqltext import render_sql
from repro.relational.schema import Column, TableSchema
from repro.relational.types import SqlType
from conftest import simple_outer_join


@pytest.fixture
def supplier():
    return TableSchema(
        "Supplier",
        [Column("suppkey", SqlType.INTEGER), Column("name", SqlType.VARCHAR),
         Column("nationkey", SqlType.INTEGER)],
        key=["suppkey"],
    )


@pytest.fixture
def nation():
    return TableSchema(
        "Nation",
        [Column("nationkey", SqlType.INTEGER), Column("name", SqlType.VARCHAR)],
        key=["nationkey"],
    )


def node_query(supplier, nation):
    join = InnerJoin(
        Scan(supplier, "s"), Scan(nation, "n"), [("s.nationkey", "n.nationkey")]
    )
    return Distinct(
        Project(join, [
            ProjectItem(ColumnRef("s.suppkey"), "v1_1_suppkey"),
            ProjectItem(ColumnRef("n.name"), "v2_1_name"),
        ])
    )


class TestFlatSelect:
    def test_node_query_renders_flat(self, supplier, nation):
        sql = render_sql(node_query(supplier, nation))
        assert "SELECT DISTINCT" in sql
        assert "FROM Supplier s, Nation n" in sql
        assert "WHERE s.nationkey = n.nationkey" in sql
        assert "AS v1_1_suppkey" in sql

    def test_filter_in_where(self, supplier, nation):
        plan = Filter(
            Scan(supplier, "s"),
            Comparison("=", ColumnRef("s.suppkey"), Literal(3)),
        )
        sql = render_sql(plan)
        assert "WHERE s.suppkey = 3" in sql

    def test_string_literal_quoted(self, supplier):
        plan = Filter(
            Scan(supplier, "s"),
            Comparison("=", ColumnRef("s.name"), Literal("O'Brien")),
        )
        assert "'O''Brien'" in render_sql(plan)

    def test_constant_column(self, supplier):
        plan = Project(Scan(supplier, "s"), [ConstantColumn("L1", 1, SqlType.INTEGER)])
        assert "1 AS L1" in render_sql(plan)

    def test_compact_mode(self, supplier):
        sql = render_sql(Scan(supplier, "s"), pretty=False)
        assert "\n" not in sql


class TestOrderBy:
    def test_order_by_nulls_first(self, supplier, nation):
        plan = Sort(node_query(supplier, nation), ["v1_1_suppkey"])
        sql = render_sql(plan)
        assert sql.endswith("ORDER BY v1_1_suppkey NULLS FIRST")

    def test_multiple_keys(self, supplier, nation):
        plan = Sort(node_query(supplier, nation), ["v1_1_suppkey", "v2_1_name"])
        assert "v1_1_suppkey NULLS FIRST, v2_1_name NULLS FIRST" in render_sql(plan)


class TestOuterJoin:
    def test_tagged_on_disjunction(self, supplier, nation):
        """The paper's ``on (L2=1 and ...) or (L2=2 and ...)`` shape."""
        left = Project(Scan(supplier, "s"), [
            ProjectItem(ColumnRef("s.suppkey"), "sk"),
        ])
        right = Project(Scan(nation, "n"), [
            ConstantColumn("L2", 1, SqlType.INTEGER),
            ProjectItem(ColumnRef("n.nationkey"), "nk"),
        ])
        join = LeftOuterJoin(
            left, right,
            [JoinBranch((("sk", "nk"),), "L2", 1),
             JoinBranch((("sk", "nk"),), "L2", 2)],
        )
        sql = render_sql(join)
        assert "LEFT OUTER JOIN" in sql
        assert ".L2 = 1 AND" in sql
        assert ") OR (" in sql

    def test_unprojected_wrap_rejected(self, supplier, nation):
        join = simple_outer_join(
            Scan(supplier, "s"), Scan(nation, "n"),
            [("s.nationkey", "n.nationkey")],
        )
        with pytest.raises(QueryError, match="project"):
            render_sql(join)


class TestUnion:
    def test_null_padding(self, supplier, nation):
        a = Project(Scan(supplier, "s"), [ProjectItem(ColumnRef("s.suppkey"), "a")])
        b = Project(Scan(nation, "n"), [ProjectItem(ColumnRef("n.nationkey"), "b")])
        sql = render_sql(OuterUnion([a, b]))
        assert "UNION ALL" in sql
        assert "NULL AS b" in sql
        assert "NULL AS a" in sql

    def test_union_distinct_keyword(self, supplier):
        a = Project(Scan(supplier, "s"), [ProjectItem(ColumnRef("s.suppkey"), "a")])
        sql = render_sql(OuterUnion([a, a], distinct=True))
        assert "UNION\n" in sql and "UNION ALL" not in sql


class TestEndToEnd:
    def test_generated_stream_sql(self, q1_tree, tiny_db):
        """Every stream of a mid-partition plan renders to plausible SQL."""
        from repro.core.partition import Partition
        from repro.core.sqlgen import SqlGenerator

        generator = SqlGenerator(q1_tree, tiny_db.schema)
        partition = Partition([(1, 2), (1, 4, 1), (1, 4, 2)])
        for spec in generator.streams_for_partition(partition):
            sql = spec.sql
            assert sql.startswith("SELECT")
            assert "ORDER BY" in sql
            assert "NULLS FIRST" in sql

    def test_unified_sql_mentions_all_tables(self, q1_tree, tiny_db):
        from repro.core.partition import unified_partition
        from repro.core.sqlgen import SqlGenerator

        generator = SqlGenerator(q1_tree, tiny_db.schema)
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        for table in ("Supplier", "Nation", "Region", "PartSupp", "Part",
                      "LineItem", "Orders", "Customer"):
            assert table in spec.sql
