"""Tests for the greedy plan-generation algorithm (repro.core.greedy)."""

import itertools

import pytest

from repro.core.greedy import GreedyParameters, GreedyPlan, GreedyPlanner
from repro.core.options import resolve_options
from repro.core.partition import Partition
from repro.core.sqlgen import PlanStyle


@pytest.fixture
def planner(q1_tree, tiny_db, tiny_estimator):
    return GreedyPlanner(q1_tree, tiny_db.schema, tiny_estimator, reduce=True)


class TestGreedyPlan:
    def test_partitions_family(self):
        plan = GreedyPlan(
            mandatory=frozenset({(1, 1)}),
            optional=frozenset({(1, 2), (1, 3)}),
        )
        family = plan.partitions()
        assert len(family) == 4
        assert Partition([(1, 1)]) in family
        assert Partition([(1, 1), (1, 2), (1, 3)]) in family
        # every member includes the mandatory edge
        assert all((1, 1) in p.kept for p in family)

    def test_recommended_keeps_everything(self):
        plan = GreedyPlan(
            mandatory=frozenset({(1, 1)}), optional=frozenset({(1, 2)})
        )
        assert plan.recommended() == Partition([(1, 1), (1, 2)])

    def test_describe(self):
        plan = GreedyPlan(
            mandatory=frozenset({(1, 4, 2)}), optional=frozenset({(1, 1)})
        )
        described = plan.describe()
        assert described["mandatory"] == ["S1.4.2"]
        assert described["optional"] == ["S1.1"]
        assert described["family_size"] == 2


class TestPlanner:
    def test_produces_valid_edges(self, planner, q1_tree):
        plan = planner.plan()
        edge_ids = {child.index for _, child in q1_tree.edges}
        assert plan.mandatory <= edge_ids
        assert plan.optional <= edge_ids
        assert not (plan.mandatory & plan.optional)

    def test_oracle_requests_far_below_worst_case(self, planner):
        """Sec. 5.1: component-query memoization keeps oracle requests far
        below |Edges|^2 = 81."""
        plan = planner.plan()
        assert 0 < plan.oracle_requests < 81
        assert plan.oracle_cache_hits > 0

    def test_thresholds_control_family(self, q1_tree, tiny_db, tiny_estimator):
        planner = GreedyPlanner(q1_tree, tiny_db.schema, tiny_estimator, reduce=True)
        everything_mandatory = planner.plan(
            GreedyParameters(t1=float("inf"), t2=float("inf"))
        )
        assert len(everything_mandatory.mandatory) == 9
        nothing = GreedyPlanner(
            q1_tree, tiny_db.schema, tiny_estimator, reduce=True
        ).plan(GreedyParameters(t1=float("-inf"), t2=float("-inf")))
        assert not nothing.mandatory and not nothing.optional

    @pytest.mark.parametrize("first,second", itertools.permutations(
        [(100.0, 1.0), (1.0, 100.0), (1000.0, 0.0), (0.0, 1000.0)], 2,
    ), ids=str)
    def test_one_planner_serves_any_coefficients(self, planner, q1_tree,
                                                 tiny_db, tiny_estimator,
                                                 first, second):
        """The memo holds the oracle's answers, not a weighted cost: after
        planning under one ``(a, b)`` the same planner plans under another
        exactly as a fresh one would (four pairs, four different families),
        asking the oracle only about components it has not seen — and
        about nothing when either setting comes round again."""
        def fresh(pair):
            return GreedyPlanner(
                q1_tree, tiny_db.schema, tiny_estimator, reduce=True
            ).plan(GreedyParameters(a=pair[0], b=pair[1]))

        def edges(plan):
            return plan.mandatory, plan.optional

        assert edges(fresh(first)) != edges(fresh(second))
        for pair in (first, second):
            plan = planner.plan(GreedyParameters(a=pair[0], b=pair[1]))
            assert edges(plan) == edges(fresh(pair))
        asked = planner.oracle_requests
        assert asked == len(planner._component_cost) < 81
        for pair in (first, second):
            again = planner.plan(GreedyParameters(a=pair[0], b=pair[1]))
            assert edges(again) == edges(fresh(pair))
        assert planner.oracle_requests == asked

    def test_deterministic(self, q1_tree, tiny_db, tiny_estimator):
        a = GreedyPlanner(q1_tree, tiny_db.schema, tiny_estimator, reduce=True).plan()
        b = GreedyPlanner(q1_tree, tiny_db.schema, tiny_estimator, reduce=True).plan()
        assert a.mandatory == b.mandatory
        assert a.optional == b.optional

    def test_styles_supported(self, q1_tree, tiny_db, tiny_estimator):
        plan = GreedyPlanner(
            q1_tree, tiny_db.schema, tiny_estimator,
            style=PlanStyle.OUTER_UNION, reduce=False,
        ).plan()
        assert plan.oracle_requests > 0

    def test_chain_edge_priced_out(self, q1_tree, tiny_db, tiny_estimator):
        """Without reduction, keeping the whole part-order chain triggers
        the re-evaluation penalty; the greedy must not select a family that
        contains it."""
        plan = GreedyPlanner(
            q1_tree, tiny_db.schema, tiny_estimator, reduce=False
        ).plan()
        kept = plan.mandatory | plan.optional
        has_chain = (
            {(1, 4), (1, 4, 2)} <= kept
            and kept & {(1, 4, 2, 1), (1, 4, 2, 2), (1, 4, 2, 3)}
        )
        assert not has_chain


class TestPlanningAfterAWrite:
    """A planner made after a write costs the data as it is: a new view,
    or a new ``(style, reduce)`` variant of a planned one, in a session
    that wrote gets the family and the component costs a fresh session
    gets (the session's estimator keys its answers by table generation)."""

    def test_equals_a_fresh_session(self):
        from repro import Session
        from repro.bench.queries import QUERY_1
        from repro.relational.connection import Connection
        from repro.relational.engine import CostModel
        from repro.tpch.generator import TpchGenerator
        from conftest import TINY_SCALE

        db = TpchGenerator(scale=TINY_SCALE, seed=42).generate()
        session = Session(Connection(db, CostModel()))
        session.materialize(QUERY_1)          # costs Q1 before the write
        session.mutate("Supplier", op="insert", rows=200)
        fresh = Session(Connection(db, CostModel()))
        variant = {"style": PlanStyle.OUTER_UNION, "reduce": True}
        planned_after = [
            (session.view(QUERY_1 + " "), {}),   # a new view
            (session.view(QUERY_1 + " "), variant),
            (session.view(QUERY_1), variant),    # a new variant of a view
        ]
        for view, options in planned_after:
            got = view.greedy_plan(**options)
            want = fresh.view(QUERY_1).greedy_plan(**options)
            assert (got.mandatory, got.optional) == (
                want.mandatory, want.optional)
            opts = resolve_options(None, options)
            costs = fresh.view(QUERY_1)._planner(opts)._component_cost
            assert view._planner(opts)._component_cost == costs
            assert len(costs) > 0
