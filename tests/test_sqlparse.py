"""The SQL text of generated plans, checked on a real SQL engine: each
stream's text runs on SQLite and must return the simulated engine's rows
in the plan's ORDER BY (``cross_validate``).  SQLite, not a parser of our
own, is the judge of what the text means."""

import pytest

from repro.core.partition import (
    Partition,
    fully_partitioned,
    unified_partition,
)
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.relational.backends import SqliteBackend, cross_validate
from repro.relational.engine import CostModel, QueryEngine


@pytest.fixture
def engine(tiny_db):
    return QueryEngine(tiny_db, CostModel())


class TestRoundTrip:
    """The generated SQL of Q1/Q2 plans, run on SQLite, returns the
    simulated engine's rows in the plan's order (``cross_validate``)."""

    @pytest.mark.parametrize("style", [PlanStyle.OUTER_JOIN,
                                       PlanStyle.OUTER_UNION])
    @pytest.mark.parametrize("reduce", [False, True])
    def test_unified_round_trip(self, q1_tree, tiny_db, engine, style, reduce):
        generator = SqlGenerator(q1_tree, tiny_db.schema, style=style,
                                 reduce=reduce)
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        self._assert_round_trip(spec, tiny_db, engine)

    def test_fully_partitioned_round_trip(self, q1_tree, tiny_db, engine):
        generator = SqlGenerator(q1_tree, tiny_db.schema)
        for spec in generator.streams_for_partition(
            fully_partitioned(q1_tree)
        ):
            self._assert_round_trip(spec, tiny_db, engine)

    def test_mid_partition_round_trip(self, q1_tree, tiny_db, engine):
        generator = SqlGenerator(q1_tree, tiny_db.schema, reduce=True)
        partition = Partition([(1, 1), (1, 2), (1, 4), (1, 4, 2),
                               (1, 4, 2, 2)])
        for spec in generator.streams_for_partition(partition):
            self._assert_round_trip(spec, tiny_db, engine)

    def test_query2_round_trip(self, q2_tree, tiny_db, engine):
        generator = SqlGenerator(q2_tree, tiny_db.schema)
        [spec] = generator.streams_for_partition(unified_partition(q2_tree))
        self._assert_round_trip(spec, tiny_db, engine)

    def _assert_round_trip(self, spec, db, engine):
        backend = SqliteBackend(db)
        try:
            [(checked, _, _)] = cross_validate(engine, [spec], backend)
        finally:
            backend.close()
        assert checked is spec
