"""Tests for the relational-algebra IR (repro.relational.algebra)."""

import pytest

from repro.common.errors import QueryError
from repro.relational.algebra import (
    And,
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
    count_operators,
    outer_join_nesting,
    walk,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.types import SqlType
from conftest import simple_outer_join


@pytest.fixture
def people():
    return TableSchema(
        "People",
        [Column("id", SqlType.INTEGER), Column("name", SqlType.VARCHAR)],
        key=["id"],
    )


@pytest.fixture
def pets():
    return TableSchema(
        "Pets",
        [Column("pid", SqlType.INTEGER), Column("owner", SqlType.INTEGER)],
        key=["pid"],
    )


class TestScan:
    def test_columns_qualified(self, people):
        scan = Scan(people, "p")
        assert scan.column_names() == ("p.id", "p.name")
        assert scan.columns()[0].source == ("People", "id")

    def test_positions(self, people):
        assert Scan(people, "p").positions() == {"p.id": 0, "p.name": 1}


class TestPredicates:
    def test_comparison_eval(self, people):
        scan = Scan(people, "p")
        cmp = Comparison("=", ColumnRef("p.id"), Literal(3))
        assert cmp.evaluate((3, "x"), scan.positions())
        assert not cmp.evaluate((4, "x"), scan.positions())

    def test_null_never_matches(self, people):
        scan = Scan(people, "p")
        cmp = Comparison("=", ColumnRef("p.id"), Literal(3))
        assert not cmp.evaluate((None, "x"), scan.positions())
        neq = Comparison("!=", ColumnRef("p.id"), Literal(3))
        assert not neq.evaluate((None, "x"), scan.positions())

    def test_all_operators(self):
        positions = {"a": 0}
        for op, expected in [("<", True), ("<=", True), (">", False),
                             (">=", False), ("!=", True), ("=", False)]:
            cmp = Comparison(op, ColumnRef("a"), Literal(5))
            assert cmp.evaluate((1,), positions) is expected

    def test_bad_operator(self):
        with pytest.raises(QueryError):
            Comparison("~", ColumnRef("a"), Literal(1))

    def test_and(self):
        positions = {"a": 0, "b": 1}
        pred = And.of([
            Comparison("=", ColumnRef("a"), Literal(1)),
            Comparison("=", ColumnRef("b"), Literal(2)),
        ])
        assert pred.evaluate((1, 2), positions)
        assert not pred.evaluate((1, 3), positions)
        assert pred.referenced_columns() == ["a", "b"]

    def test_empty_and_is_true(self):
        assert And.of([]).evaluate((), {})
        assert And.of([]).to_sql() == "TRUE"

    def test_comparison_sql(self):
        assert Comparison("!=", ColumnRef("a"), Literal(1)).to_sql() == "a <> 1"


class TestFilterProject:
    def test_filter_unknown_column(self, people):
        with pytest.raises(QueryError):
            Filter(Scan(people, "p"), Comparison("=", ColumnRef("zz"), Literal(1)))

    def test_filter_preserves_columns(self, people):
        scan = Scan(people, "p")
        f = Filter(scan, Comparison("=", ColumnRef("p.id"), Literal(1)))
        assert f.columns() == scan.columns()
        assert f.children == (scan,)

    def test_project_rename(self, people):
        proj = Project(Scan(people, "p"), [ProjectItem(ColumnRef("p.id"), "id")])
        assert proj.column_names() == ("id",)
        assert proj.columns()[0].source == ("People", "id")

    def test_project_null_constant_needs_type(self, people):
        item = ConstantColumn("x", None, SqlType.VARCHAR)
        proj = Project(Scan(people, "p"), [item])
        assert proj.columns()[0].sql_type is SqlType.VARCHAR

    def test_null_literal_without_type_rejected(self, people):
        with pytest.raises(QueryError):
            Project(Scan(people, "p"), [ProjectItem(Literal(None), "x")])

    def test_project_unknown_column(self, people):
        with pytest.raises(QueryError):
            Project(Scan(people, "p"), [ProjectItem(ColumnRef("zz"), "x")])

    def test_project_duplicate_names(self, people):
        with pytest.raises(QueryError, match="duplicate"):
            Project(
                Scan(people, "p"),
                [ProjectItem(ColumnRef("p.id"), "x"),
                 ProjectItem(ColumnRef("p.name"), "x")],
            )


class TestJoins:
    def test_inner_join_columns(self, people, pets):
        join = InnerJoin(Scan(people, "p"), Scan(pets, "q"), [("p.id", "q.owner")])
        assert join.column_names() == ("p.id", "p.name", "q.pid", "q.owner")

    def test_inner_join_unknown_columns(self, people, pets):
        with pytest.raises(QueryError):
            InnerJoin(Scan(people, "p"), Scan(pets, "q"), [("zz", "q.owner")])
        with pytest.raises(QueryError):
            InnerJoin(Scan(people, "p"), Scan(pets, "q"), [("p.id", "zz")])

    def test_outer_join_requires_branch(self, people, pets):
        with pytest.raises(QueryError):
            LeftOuterJoin(Scan(people, "p"), Scan(pets, "q"), [])

    def test_outer_join_tag_column_checked(self, people, pets):
        with pytest.raises(QueryError):
            LeftOuterJoin(
                Scan(people, "p"),
                Scan(pets, "q"),
                [JoinBranch((("p.id", "q.owner"),), tag_column="zz", tag_value=1)],
            )

    def test_simple_constructor(self, people, pets):
        join = simple_outer_join(
            Scan(people, "p"), Scan(pets, "q"), [("p.id", "q.owner")]
        )
        assert len(join.branches) == 1
        assert join.branches[0].tag_column is None


class TestUnionSort:
    def test_union_schema_is_column_union(self, people, pets):
        union = OuterUnion([Scan(people, "p"), Scan(pets, "q")])
        assert union.column_names() == ("p.id", "p.name", "q.pid", "q.owner")

    def test_union_requires_input(self):
        with pytest.raises(QueryError):
            OuterUnion([])

    def test_union_conflicting_types(self, people):
        a = Project(Scan(people, "p"), [ProjectItem(ColumnRef("p.id"), "x")])
        b = Project(Scan(people, "p"), [ProjectItem(ColumnRef("p.name"), "x")])
        with pytest.raises(QueryError, match="conflicting"):
            OuterUnion([a, b])

    def test_sort_unknown_key(self, people):
        with pytest.raises(QueryError):
            Sort(Scan(people, "p"), ["zz"])


class TestInspection:
    def test_walk_and_count(self, people, pets):
        join = InnerJoin(Scan(people, "p"), Scan(pets, "q"), [("p.id", "q.owner")])
        plan = Sort(Distinct(join), ["p.id"])
        kinds = [type(op).__name__ for op in walk(plan)]
        assert kinds == ["Sort", "Distinct", "InnerJoin", "Scan", "Scan"]
        assert count_operators(plan, Scan) == 2

    def test_outer_join_nesting(self, people, pets):
        p, q = Scan(people, "p"), Scan(pets, "q")
        flat = simple_outer_join(p, q, [("p.id", "q.owner")])
        assert outer_join_nesting(flat) == 1
        assert outer_join_nesting(p) == 0
        r = Scan(people, "r")
        nested = simple_outer_join(
            r, Project(flat, [ProjectItem(ColumnRef("p.id"), "x")]),
            [("r.id", "x")],
        )
        assert outer_join_nesting(nested) == 2

    def test_fingerprints_structural(self, people):
        a = Scan(people, "p")
        b = Scan(people, "p")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != Scan(people, "q").fingerprint()

    def test_fingerprint_distinguishes_predicates(self, people):
        scan = Scan(people, "p")
        f1 = Filter(scan, Comparison("=", ColumnRef("p.id"), Literal(1)))
        f2 = Filter(scan, Comparison("=", ColumnRef("p.id"), Literal(2)))
        assert f1.fingerprint() != f2.fingerprint()
