"""Tests for the executing engine and cost model (repro.relational.engine)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TimeoutExceeded
from repro.core.partition import unified_partition
from repro.core.sqlgen import SqlGenerator
from repro.relational.algebra import (
    ColumnInfo,
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
from repro.relational.database import Database
from repro.relational.engine import (
    CONFIG_A_COST_MODEL,
    CostModel,
    QueryEngine,
)
from repro.relational.estimator import CostEstimator
from repro.relational.schema import Column, DatabaseSchema, TableSchema
from repro.relational.types import SqlType, average_row_width, width_function
from conftest import simple_outer_join


@pytest.fixture
def db():
    schema = DatabaseSchema(
        [
            TableSchema(
                "Dept",
                [Column("deptno", SqlType.INTEGER), Column("dname", SqlType.VARCHAR)],
                key=["deptno"],
            ),
            TableSchema(
                "Emp",
                [
                    Column("empno", SqlType.INTEGER),
                    Column("ename", SqlType.VARCHAR),
                    Column("deptno", SqlType.INTEGER, nullable=True),
                ],
                key=["empno"],
            ),
        ]
    )
    database = Database(schema)
    database.insert("Dept", 1, "eng")
    database.insert("Dept", 2, "ops")
    database.insert("Dept", 3, "empty")
    database.insert("Emp", 10, "ada", 1)
    database.insert("Emp", 11, "bob", 1)
    database.insert("Emp", 12, "cyd", 2)
    database.insert("Emp", 13, "dan", None)
    return database


@pytest.fixture
def engine(db):
    return QueryEngine(db, CostModel())


def dept(db):
    return Scan(db.schema.table("Dept"), "d")


def emp(db):
    return Scan(db.schema.table("Emp"), "e")


class TestScanFilterProject:
    def test_scan(self, engine, db):
        result = engine.execute(dept(db))
        assert len(result.rows) == 3
        assert result.rows[0] == (1, "eng")

    def test_filter(self, engine, db):
        plan = Filter(emp(db), Comparison("=", ColumnRef("e.deptno"), Literal(1)))
        result = engine.execute(plan)
        assert {r[1] for r in result.rows} == {"ada", "bob"}

    def test_filter_null_excluded(self, engine, db):
        plan = Filter(emp(db), Comparison("!=", ColumnRef("e.deptno"), Literal(1)))
        # dan has NULL deptno: excluded by three-valued logic.
        assert {r[1] for r in engine.execute(plan).rows} == {"cyd"}

    def test_project_constants_and_rename(self, engine, db):
        plan = Project(
            dept(db),
            [ConstantColumn("L1", 1, SqlType.INTEGER), ProjectItem(ColumnRef("d.dname"), "name")],
        )
        assert engine.execute(plan).rows[0] == (1, "eng")

    def test_distinct(self, engine, db):
        plan = Distinct(Project(emp(db), [ProjectItem(ColumnRef("e.deptno"), "d")]))
        rows = engine.execute(plan).rows
        assert sorted(rows, key=lambda r: (r[0] is None, r[0])) == [(1,), (2,), (None,)]


class TestJoins:
    def test_inner_join(self, engine, db):
        plan = InnerJoin(emp(db), dept(db), [("e.deptno", "d.deptno")])
        rows = engine.execute(plan).rows
        assert len(rows) == 3  # dan (NULL) drops out
        names = {(r[1], r[4]) for r in rows}
        assert names == {("ada", "eng"), ("bob", "eng"), ("cyd", "ops")}

    def test_inner_join_null_keys_never_match(self, engine, db):
        plan = InnerJoin(emp(db), emp_alias(db), [("e.deptno", "e2.deptno")])
        rows = engine.execute(plan).rows
        assert all(r[2] is not None for r in rows)

    def test_cartesian_join(self, engine, db):
        plan = InnerJoin(dept(db), emp_alias(db), [])
        assert len(engine.execute(plan).rows) == 12

    def test_left_outer_join_pads_nulls(self, engine, db):
        plan = simple_outer_join(dept(db), emp(db), [("d.deptno", "e.deptno")])
        rows = engine.execute(plan).rows
        assert len(rows) == 4  # 3 matches + bare 'empty' dept
        bare = [r for r in rows if r[2] is None]
        assert len(bare) == 1 and bare[0][1] == "empty"

    def test_tagged_branches(self, engine, db):
        # Tag on dname: branch 1 matches 'eng' rows only.
        right = dept(db)
        plan = LeftOuterJoin(
            emp(db),
            right,
            [JoinBranch((("e.deptno", "d.deptno"),), "d.dname", "eng")],
        )
        rows = engine.execute(plan).rows
        matched = [r for r in rows if r[3] is not None]
        assert {r[1] for r in matched} == {"ada", "bob"}
        # cyd and dan fall through to the null branch
        assert len(rows) == 4

    def test_multi_branch_disjunction(self, engine, db):
        plan = LeftOuterJoin(
            emp(db),
            dept(db),
            [
                JoinBranch((("e.deptno", "d.deptno"),), "d.dname", "eng"),
                JoinBranch((("e.deptno", "d.deptno"),), "d.dname", "ops"),
            ],
        )
        rows = engine.execute(plan).rows
        matched = [r for r in rows if r[3] is not None]
        assert {r[1] for r in matched} == {"ada", "bob", "cyd"}


class TestUnionSort:
    def test_outer_union_pads(self, engine, db):
        a = Project(dept(db), [ProjectItem(ColumnRef("d.dname"), "x")])
        b = Project(emp(db), [ProjectItem(ColumnRef("e.ename"), "y")])
        plan = OuterUnion([a, b])
        rows = engine.execute(plan).rows
        assert len(rows) == 7
        assert rows[0] == ("eng", None)
        assert rows[3] == (None, "ada")

    def test_union_distinct(self, engine, db):
        a = Project(emp(db), [ProjectItem(ColumnRef("e.deptno"), "d")])
        plan = OuterUnion([a, a], distinct=True)
        assert len(engine.execute(plan).rows) == 3

    def test_sort_nulls_first(self, engine, db):
        plan = Sort(
            Project(emp(db), [ProjectItem(ColumnRef("e.deptno"), "d")]), ["d"]
        )
        values = [r[0] for r in engine.execute(plan).rows]
        assert values == [None, 1, 1, 2]


class TestCostAccounting:
    def test_startup_charged_once(self, db):
        """One query, one startup charge, scaled like every other — however
        many operators the plan has."""
        engine = QueryEngine(db, CostModel(speed=4.0))
        plan = InnerJoin(emp(db), dept(db), [("e.deptno", "d.deptno")])
        result = engine.execute(plan)
        assert list(result.breakdown)[0] == "startup"
        assert result.breakdown["startup"] == 4.0 * engine.cost_model.startup_ms
        assert result.server_ms == pytest.approx(
            sum(result.breakdown.values())
        )

    def test_speed_scales_costs(self, db):
        slow = QueryEngine(db, CostModel(speed=4.0))
        fast = QueryEngine(db, CostModel(speed=1.0))
        plan = dept(db)
        assert slow.execute(plan).server_ms == pytest.approx(
            4.0 * fast.execute(plan).server_ms
        )

    def test_breakdown_labels(self, engine, db):
        plan = Sort(
            Distinct(InnerJoin(emp(db), dept(db), [("e.deptno", "d.deptno")])),
            ["e.empno"],
        )
        breakdown = engine.execute(plan).breakdown
        assert {"startup", "scan", "join", "distinct", "sort"} <= set(breakdown)

    def test_deterministic(self, engine, db):
        plan = InnerJoin(emp(db), dept(db), [("e.deptno", "d.deptno")])
        assert (
            engine.execute(plan).server_ms == engine.execute(plan).server_ms
        )

    def test_timeout(self, db):
        engine = QueryEngine(db, CostModel())
        with pytest.raises(TimeoutExceeded):
            engine.execute(dept(db), budget_ms=0.001)

    def test_timeout_carries_budget(self, db):
        engine = QueryEngine(db, CostModel())
        with pytest.raises(TimeoutExceeded) as excinfo:
            engine.execute(dept(db), budget_ms=0.001)
        assert excinfo.value.budget_ms == 0.001
        assert excinfo.value.elapsed_ms > 0


class TestSharing:
    def test_common_subexpression_shared(self, engine, db):
        """The same sub-plan used twice is evaluated once (rescan charge)."""
        shared = InnerJoin(emp(db), dept(db), [("e.deptno", "d.deptno")])
        a = Project(shared, [ProjectItem(ColumnRef("e.ename"), "x")])
        b = Project(shared, [ProjectItem(ColumnRef("d.dname"), "x")])
        plan = OuterUnion([a, b])
        breakdown = engine.execute(plan).breakdown
        assert "rescan" in breakdown
        # Only two scans + one join were charged, not four + two.
        single = engine.execute(a).breakdown
        combined = engine.execute(plan).breakdown
        assert combined["join"] == pytest.approx(single["join"])

    def test_no_sharing_across_executions(self, engine, db):
        plan = dept(db)
        first = engine.execute(plan).breakdown
        second = engine.execute(plan).breakdown
        assert first.get("rescan") is None and second.get("rescan") is None


class TestReevaluationPenalty:
    def _nested(self, db):
        inner = simple_outer_join(
            Project(emp(db), [ProjectItem(ColumnRef("e.deptno"), "dep"),
                              ProjectItem(ColumnRef("e.ename"), "en")]),
            Project(dept(db), [ProjectItem(ColumnRef("d.deptno"), "dd")]),
            [("dep", "dd")],
        )
        return simple_outer_join(
            Project(dept(db), [ProjectItem(ColumnRef("d.deptno"), "k")]),
            inner,
            [("k", "dep")],
        )

    def test_depth_two_triggers_reevaluation(self, db):
        # right side of the OUTER join has nesting 1 -> below threshold.
        model = CostModel(reevaluation_threshold=1)
        stressed = QueryEngine(db, model).execute(self._nested(db))
        relaxed = QueryEngine(db, model.without("reevaluation_factor")).execute(
            self._nested(db)
        )
        assert stressed.server_ms > relaxed.server_ms
        assert "outer_join_reevaluation" in stressed.breakdown

    def test_default_threshold_spares_single_nesting(self, db):
        result = QueryEngine(db, CostModel()).execute(self._nested(db))
        assert "outer_join_reevaluation" not in result.breakdown

    def test_results_unaffected_by_penalty(self, db):
        model = CostModel(reevaluation_threshold=1)
        a = QueryEngine(db, model).execute(self._nested(db))
        b = QueryEngine(db, model.without("reevaluation_factor")).execute(
            self._nested(db)
        )
        assert a.rows == b.rows


class TestSpill:
    def test_spill_inflates_sort(self, db):
        small_memory = CostModel(sort_memory_bytes=10.0)
        big_memory = CostModel(sort_memory_bytes=10_000_000.0)
        plan = Sort(emp(db), ["e.empno"])
        spilled = QueryEngine(db, small_memory).execute(plan)
        fit = QueryEngine(db, big_memory).execute(plan)
        assert spilled.breakdown["sort"] > fit.breakdown["sort"]
        assert spilled.rows == fit.rows

    def test_without_spill_is_unlimited_sort_memory(self, db):
        """The neutral ``spill_factor`` is 0.0 (the formula multiplies by
        ``1.0 + spill_factor * overflow``): with it, a sort that overflows
        its memory a thousandfold costs what one that fits costs."""
        plan = Sort(emp(db), ["e.empno"])
        tight = CostModel(sort_memory_bytes=10.0)
        roomy = CostModel(sort_memory_bytes=1e12)
        assert (
            QueryEngine(db, tight).execute(plan).breakdown["sort"]
            > QueryEngine(db, roomy).execute(plan).breakdown["sort"]
        )
        assert (
            QueryEngine(db, tight.without("spill_factor"))
            .execute(plan).breakdown["sort"]
            == QueryEngine(db, roomy).execute(plan).breakdown["sort"]
        )

    def test_without_unknown_knob(self):
        with pytest.raises(ValueError):
            CostModel().without("nonsense")


def _doubling(method):
    """A :class:`CostModel` class whose ``method`` charges twice the base
    formula, everything else inherited."""
    base = getattr(CostModel, method)
    return type("Doubled", (CostModel,), {
        method: lambda self, *counts: 2 * base(self, *counts),
    })


class TestOneDefinition:
    """Each charge formula is stated once, on :class:`CostModel`: override
    one method and both engines *and* the estimator move.  Three equal
    copies would pass every identity test and fail this one."""

    #: charge method -> the breakdown labels it prices.
    METHODS = {
        "scan_ms": {"scan"},
        "filter_ms": {"filter"},
        "project_ms": {"project"},
        "distinct_ms": {"distinct"},
        "join_ms": {"join", "outer_join"},
        "reevaluation_ms": {"outer_join_reevaluation"},
        "rescan_ms": {"rescan"},
        "union_ms": {"union"},
        "sort_ms": {"sort"},
    }

    @pytest.fixture(scope="class")
    def plans(self, tiny_db, q1_tree):
        """Q1's unified outer-join stream (non-reduced) carries every
        label but ``filter``; a ``Filter∘Scan`` supplies that one."""
        [spec] = SqlGenerator(q1_tree, tiny_db.schema).streams_for_partition(
            unified_partition(q1_tree)
        )
        part = Scan(tiny_db.schema.table("Part"), "p")
        selection = Filter(
            part, Comparison(">", ColumnRef("p.partkey"), Literal(4))
        )
        return spec.plan, selection

    @staticmethod
    def _plan_for(plans, method):
        stream, selection = plans
        return selection if method == "filter_ms" else stream

    def test_the_plans_carry_every_label(self, tiny_db, plans):
        labels = set()
        for plan in plans:
            labels |= set(QueryEngine(tiny_db).execute(plan).breakdown)
        assert labels == {"startup"}.union(*self.METHODS.values())

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("mode", ["batch", "tuple"])
    def test_doubled_method_doubles_its_labels(
        self, tiny_db, plans, method, mode
    ):
        doubled_labels = self.METHODS[method]
        plan = self._plan_for(plans, method)
        doubled_model = _doubling(method)(speed=CONFIG_A_COST_MODEL.speed)
        base = QueryEngine(
            tiny_db, CONFIG_A_COST_MODEL, engine=mode
        ).execute(plan).breakdown
        doubled = QueryEngine(
            tiny_db, doubled_model, engine=mode
        ).execute(plan).breakdown
        assert list(doubled) == list(base)
        for label, ms in base.items():
            if label in doubled_labels:
                assert doubled[label] == 2 * ms, label
            elif label != "outer_join_reevaluation":
                # (the penalty is a multiple of what the right side cost)
                assert doubled[label] == ms, label

    @pytest.mark.parametrize("method", METHODS)
    def test_doubled_method_moves_the_estimate(self, tiny_db, plans, method):
        plan = self._plan_for(plans, method)
        base = CostEstimator(tiny_db, CONFIG_A_COST_MODEL)
        doubled = CostEstimator(
            tiny_db, _doubling(method)(speed=CONFIG_A_COST_MODEL.speed)
        )
        if method == "rescan_ms":
            # The estimator charges a shared sub-plan in full at every
            # occurrence, never ``rescan`` (see
            # tests/test_estimator.py::TestOracleIsTheCostModel).
            assert doubled.evaluation_cost(plan) == base.evaluation_cost(plan)
        else:
            assert doubled.evaluation_cost(plan) > base.evaluation_cost(plan)


def emp_alias(db):
    return Scan(db.schema.table("Emp"), "e2")


def _average_row_bytes_by_field(columns, rows, sample=500):
    """The per-field loop ``types.average_row_width`` replaced with
    per-column sums: the reference it must equal to the last bit."""
    stride = max(len(rows) // sample, 1)
    sampled = rows[::stride]
    width_fns = [width_function(col.sql_type) for col in columns]
    total = 0
    for row in sampled:
        for fn, value in zip(width_fns, row):
            if value is None:
                total += 1  # null marker
            else:
                total += fn(value)
    return total / len(sampled)


_VALUES = {
    SqlType.INTEGER: st.integers(-10 ** 6, 10 ** 6),
    SqlType.DECIMAL: st.floats(allow_nan=False, allow_infinity=False),
    SqlType.VARCHAR: st.text(max_size=12),
    SqlType.CHAR: st.text(max_size=3),
    SqlType.DATE: st.dates(),
}


@st.composite
def _typed_rows(draw):
    types = draw(st.lists(st.sampled_from(list(SqlType)), max_size=6))
    columns = [
        ColumnInfo(f"c{i}", sql_type) for i, sql_type in enumerate(types)
    ]
    row = st.tuples(*(st.none() | _VALUES[t] for t in types))
    rows = draw(st.lists(row, min_size=1, max_size=40))
    return columns, rows, draw(st.integers(1, 12))


class TestAverageRowBytes:
    @given(_typed_rows())
    @settings(max_examples=200, deadline=None)
    def test_per_column_sum_equals_per_field_loop(self, case):
        """Nullable columns, fixed and variable width mixed, zero arity,
        empty strings, and a stride above one (``sample`` < rows)."""
        columns, rows, sample = case
        assert average_row_width(
            columns, rows, sample
        ) == _average_row_bytes_by_field(columns, rows, sample)

    def test_query_result(self, tiny_db, q1_tree):
        """A real, wide, mostly-NULL result: Q1's unified outer union."""
        tree = q1_tree
        [spec] = SqlGenerator(tree, tiny_db.schema).streams_for_partition(
            unified_partition(tree)
        )
        rows = QueryEngine(tiny_db).execute(spec.plan).rows
        columns = spec.plan.columns()
        assert len(rows) > 100 and any(None in row for row in rows)
        for sample in (7, 500):
            assert average_row_width(
                columns, rows, sample
            ) == _average_row_bytes_by_field(columns, rows, sample)
