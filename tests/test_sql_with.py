"""Tests for WITH-clause SQL generation (the paper's footnote 1)."""

from types import SimpleNamespace

import pytest

from repro.core.partition import (
    Partition,
    fully_partitioned,
    unified_partition,
)
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.relational.engine import CostModel, QueryEngine
from repro.relational.backends import SqliteBackend, cross_validate
from repro.relational.sqltext import render_sql, render_sql_with


@pytest.fixture
def engine(tiny_db):
    return QueryEngine(tiny_db, CostModel())


class TestRenderWith:
    def test_shared_subqueries_become_ctes(self, q1_tree, tiny_db):
        generator = SqlGenerator(q1_tree, tiny_db.schema,
                                 style=PlanStyle.OUTER_UNION)
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        sql = render_sql_with(spec.plan)
        assert sql.startswith("WITH nq_1 AS (")
        # The paths through the part chain all share the supplier-partsupp
        # prefix, so several CTEs appear and are referenced.
        assert sql.count("nq_") > sql.count("AS (")  # definitions + uses

    def test_no_sharing_falls_back(self, q1_tree, tiny_db):
        generator = SqlGenerator(q1_tree, tiny_db.schema)
        specs = generator.streams_for_partition(fully_partitioned(q1_tree))
        sql = render_sql_with(specs[0].plan)
        assert not sql.startswith("WITH")
        assert sql == render_sql(specs[0].plan)

    def test_compact_mode(self, q1_tree, tiny_db):
        generator = SqlGenerator(q1_tree, tiny_db.schema,
                                 style=PlanStyle.OUTER_UNION)
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        compact = render_sql_with(spec.plan, pretty=False)
        assert "\n" not in compact


class TestWithRoundTrip:
    @pytest.mark.parametrize("style", list(PlanStyle))
    @pytest.mark.parametrize("reduce", [False, True])
    def test_unified(self, q1_tree, tiny_db, engine, style, reduce):
        generator = SqlGenerator(q1_tree, tiny_db.schema, style=style,
                                 reduce=reduce)
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        self._check(spec, tiny_db, engine)

    def test_mid_partition(self, q1_tree, tiny_db, engine):
        generator = SqlGenerator(q1_tree, tiny_db.schema)
        partition = Partition([(1, 4), (1, 4, 1), (1, 4, 2)])
        for spec in generator.streams_for_partition(partition):
            self._check(spec, tiny_db, engine)

    def test_query2(self, q2_tree, tiny_db, engine):
        generator = SqlGenerator(q2_tree, tiny_db.schema,
                                 style=PlanStyle.OUTER_UNION)
        [spec] = generator.streams_for_partition(unified_partition(q2_tree))
        self._check(spec, tiny_db, engine)

    def _check(self, spec, db, engine):
        """The WITH form, run on SQLite, returns the simulated engine's
        rows in the plan's order."""
        with_spec = SimpleNamespace(plan=spec.plan, label=spec.label,
                                    sql=render_sql_with(spec.plan))
        backend = SqliteBackend(db)
        try:
            cross_validate(engine, [with_spec], backend)
        finally:
            backend.close()
