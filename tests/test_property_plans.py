"""Property-based tests over randomly generated algebra plans.

A hypothesis strategy composes random (but well-formed) plans over the
Region/Nation tables, then checks:

* the engine executes them deterministically,
* the SQL renderer's text, run on SQLite, returns exactly the same rows
  (the middle-ware round trip: plan → SQL → RDBMS, ``cross_validate``).
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.partition import enumerate_partitions
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.relational.algebra import (
    ColumnRef,
    Comparison,
    ConstantColumn,
    Distinct,
    Filter,
    InnerJoin,
    Literal,
    OuterUnion,
    Project,
    ProjectItem,
    Scan,
    Sort,
)
from repro.relational.engine import CostModel, QueryEngine
from repro.relational.backends import SqliteBackend, cross_validate
from repro.relational.sqltext import render_sql
from repro.relational.types import SqlType


def on_sqlite(db, specs):
    """``cross_validate`` ``specs`` (anything with ``plan``, ``sql`` and
    ``label``) on a fresh SQLite mirror of ``db``."""
    backend = SqliteBackend(db)
    try:
        return cross_validate(QueryEngine(db, CostModel()), specs, backend)
    finally:
        backend.close()


def text_of(plan):
    return SimpleNamespace(plan=plan, sql=render_sql(plan), label="random")


@st.composite
def plans(draw, schema):
    """A random projected plan over Region/Nation with fresh aliases."""
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def base(depth):
        choice = draw(st.integers(0, 2 if depth > 0 else 1))
        if choice == 0:
            alias = fresh("r")
            return Scan(schema.table("Region"), alias)
        if choice == 1:
            alias = fresh("n")
            return Scan(schema.table("Nation"), alias)
        left = base(depth - 1)
        right_alias = fresh("j")
        right = Scan(schema.table("Nation"), right_alias)
        left_keys = [
            c.name for c in left.columns() if c.name.endswith("regionkey")
        ]
        if left_keys:
            return InnerJoin(
                left, right, [(draw(st.sampled_from(left_keys)),
                               f"{right_alias}.regionkey")]
            )
        return InnerJoin(left, right, [])

    plan = base(draw(st.integers(0, 2)))

    if draw(st.booleans()):
        columns = [c.name for c in plan.columns()]
        key_cols = [c for c in columns if "key" in c]
        target = draw(st.sampled_from(key_cols))
        plan = Filter(
            plan,
            Comparison(
                draw(st.sampled_from(["=", "<", ">=", "!="])),
                ColumnRef(target),
                Literal(draw(st.integers(0, 6))),
            ),
        )

    columns = list(plan.columns())
    n_cols = draw(st.integers(1, min(4, len(columns))))
    picked = draw(
        st.lists(
            st.sampled_from(columns), min_size=n_cols, max_size=n_cols,
            unique_by=lambda c: c.name,
        )
    )
    items = [
        ProjectItem(ColumnRef(c.name), f"c{i}") for i, c in enumerate(picked)
    ]
    if draw(st.booleans()):
        items.append(ConstantColumn(f"c{len(items)}", draw(st.integers(0, 9)),
                                    SqlType.INTEGER))
    plan = Project(plan, items)

    if draw(st.booleans()):
        plan = Distinct(plan)
    if draw(st.booleans()):
        plan = Sort(plan, [i.name for i in plan.items]
                    if isinstance(plan, Project)
                    else [c.name for c in plan.columns()])
    return plan


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_random_plan_roundtrip(tiny_db, data):
    plan = data.draw(plans(tiny_db.schema))
    engine = QueryEngine(tiny_db, CostModel())
    original = engine.execute(plan)

    # Deterministic execution.
    again = engine.execute(plan)
    assert original.rows == again.rows
    assert original.server_ms == again.server_ms

    # The SQL text means the same rows on a real SQL engine.
    on_sqlite(tiny_db, [text_of(plan)])


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_union_of_random_plans_roundtrip(tiny_db, data):
    left = data.draw(plans(tiny_db.schema))
    right = data.draw(plans(tiny_db.schema))

    def unsorted(plan):
        return plan.child if isinstance(plan, Sort) else plan

    # Disambiguate the right branch's columns: a real generator never unions
    # same-named columns of different types.
    right = Project(
        unsorted(right),
        [ProjectItem(ColumnRef(c.name), f"d{i}")
         for i, c in enumerate(unsorted(right).columns())],
    )
    union = OuterUnion([unsorted(left), right])
    on_sqlite(tiny_db, [text_of(union)])


@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_random_partition_sql_roundtrip(tiny_db, q1_tree, q2_tree, data):
    """Every stream of a random partition survives the full middle-ware
    text round trip: the generated SQL, run on SQLite, yields the
    generated plan's rows in its order."""
    tree = data.draw(st.sampled_from([q1_tree, q2_tree]))
    style = data.draw(
        st.sampled_from([PlanStyle.OUTER_JOIN, PlanStyle.OUTER_UNION])
    )
    partitions = list(enumerate_partitions(tree))
    partition = partitions[data.draw(st.integers(0, len(partitions) - 1))]
    specs = SqlGenerator(
        tree, tiny_db.schema, style=style
    ).streams_for_partition(partition)
    on_sqlite(tiny_db, specs)


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_random_partition_sqlite_identity(tiny_db, q1_tree, q2_tree, data):
    """The same streams, executed on a real SQLite mirror through the
    dialect layer, align with the simulated oracle row-for-row
    (``cross_validate``, the one comparison every caller runs)."""
    tree = data.draw(st.sampled_from([q1_tree, q2_tree]))
    style = data.draw(
        st.sampled_from([PlanStyle.OUTER_JOIN, PlanStyle.OUTER_UNION])
    )
    partitions = list(enumerate_partitions(tree))
    partition = partitions[data.draw(st.integers(0, len(partitions) - 1))]
    specs = SqlGenerator(
        tree, tiny_db.schema, style=style, reduce=data.draw(st.booleans()),
    ).streams_for_partition(partition)
    checked = on_sqlite(tiny_db, specs)
    assert [spec for spec, _, _ in checked] == specs
    assert all(len(walls) == 1 for _, _, walls in checked)


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_estimator_handles_any_plan(tiny_db, tiny_estimator, data):
    """The oracle never crashes and returns sane values for any plan."""
    plan = data.draw(plans(tiny_db.schema))
    estimate = tiny_estimator.estimate(plan)
    assert estimate.cardinality >= 0
    assert estimate.server_ms >= 0
    assert estimate.row_width >= 0
