"""Tests for the cost/cardinality oracle (repro.relational.estimator)."""

import pytest

from repro.relational.algebra import (
    ColumnRef,
    Comparison,
    Distinct,
    Filter,
    InnerJoin,
    LeftOuterJoin,
    Literal,
    OuterUnion,
    Project,
    ProjectItem,
    Scan,
    Sort,
)
from repro.relational.engine import CostModel, QueryEngine
from repro.relational.estimator import CostEstimator, EstimateCache


@pytest.fixture
def estimator(tiny_db):
    return CostEstimator(tiny_db, CostModel())


def scan(db, table, alias):
    return Scan(db.schema.table(table), alias)


class TestScanEstimates:
    def test_cardinality_from_stats(self, estimator, tiny_db):
        plan = scan(tiny_db, "Supplier", "s")
        assert estimator.cardinality(plan) == len(tiny_db.table("Supplier"))

    def test_distincts_from_stats(self, estimator, tiny_db):
        plan = scan(tiny_db, "Supplier", "s")
        est = estimator.estimate(plan)
        assert est.distinct("s.suppkey") == len(tiny_db.table("Supplier"))

    def test_width_positive(self, estimator, tiny_db):
        est = estimator.estimate(scan(tiny_db, "Supplier", "s"))
        assert est.row_width > 4


class TestJoinEstimates:
    def test_key_fk_join_cardinality(self, estimator, tiny_db):
        """Supplier ⋈ Nation on the FK is one row per supplier."""
        plan = InnerJoin(
            scan(tiny_db, "Supplier", "s"),
            scan(tiny_db, "Nation", "n"),
            [("s.nationkey", "n.nationkey")],
        )
        n_suppliers = len(tiny_db.table("Supplier"))
        assert estimator.cardinality(plan) == pytest.approx(n_suppliers, rel=0.3)

    def test_join_estimate_close_to_actual(self, estimator, tiny_db):
        plan = InnerJoin(
            scan(tiny_db, "PartSupp", "ps"),
            scan(tiny_db, "Part", "p"),
            [("ps.partkey", "p.partkey")],
        )
        actual = len(QueryEngine(tiny_db, CostModel()).execute(plan).rows)
        assert estimator.cardinality(plan) == pytest.approx(actual, rel=0.3)

    def test_outer_join_at_least_left(self, estimator, tiny_db):
        plan = LeftOuterJoin.simple(
            scan(tiny_db, "Supplier", "s"),
            scan(tiny_db, "PartSupp", "ps"),
            [("s.suppkey", "ps.suppkey")],
        )
        assert estimator.cardinality(plan) >= len(tiny_db.table("Supplier"))

    def test_filter_selectivity(self, estimator, tiny_db):
        base = scan(tiny_db, "Supplier", "s")
        filtered = Filter(
            base, Comparison("=", ColumnRef("s.suppkey"), Literal(1))
        )
        assert estimator.cardinality(filtered) == pytest.approx(1.0, rel=0.01)

    def test_range_filter_selectivity(self, estimator, tiny_db):
        base = scan(tiny_db, "Supplier", "s")
        filtered = Filter(
            base, Comparison("<", ColumnRef("s.suppkey"), Literal(3))
        )
        assert 0 < estimator.cardinality(filtered) < estimator.cardinality(base)

    def test_union_sums(self, estimator, tiny_db):
        a = Project(scan(tiny_db, "Supplier", "s"),
                    [ProjectItem(ColumnRef("s.suppkey"), "k")])
        b = Project(scan(tiny_db, "Part", "p"),
                    [ProjectItem(ColumnRef("p.partkey"), "k2")])
        union = OuterUnion([a, b])
        assert estimator.cardinality(union) == pytest.approx(
            estimator.cardinality(a) + estimator.cardinality(b)
        )


class TestCostEstimates:
    def test_cost_monotone_in_plan_size(self, estimator, tiny_db):
        base = scan(tiny_db, "Supplier", "s")
        joined = InnerJoin(
            base, scan(tiny_db, "Nation", "n"), [("s.nationkey", "n.nationkey")]
        )
        assert estimator.evaluation_cost(joined) > estimator.evaluation_cost(base)

    def test_sort_adds_cost(self, estimator, tiny_db):
        base = Project(scan(tiny_db, "Supplier", "s"),
                       [ProjectItem(ColumnRef("s.suppkey"), "k")])
        assert estimator.evaluation_cost(Sort(base, ["k"])) > (
            estimator.evaluation_cost(base)
        )

    def test_data_size(self, estimator, tiny_db):
        plan = scan(tiny_db, "Supplier", "s")
        n = len(tiny_db.table("Supplier"))
        assert estimator.data_size(plan) == pytest.approx(n * 4)

    def test_reevaluation_mirrored(self, tiny_db):
        """The oracle predicts the engine's nested outer-join penalty."""
        model = CostModel(reevaluation_threshold=1)
        est = CostEstimator(tiny_db, model)
        est_relaxed = CostEstimator(tiny_db, model.without("reevaluation_factor"))
        inner = LeftOuterJoin.simple(
            Project(scan(tiny_db, "Supplier", "s"),
                    [ProjectItem(ColumnRef("s.suppkey"), "sk"),
                     ProjectItem(ColumnRef("s.nationkey"), "nk")]),
            Project(scan(tiny_db, "Nation", "n"),
                    [ProjectItem(ColumnRef("n.nationkey"), "nk2")]),
            [("nk", "nk2")],
        )
        outer = LeftOuterJoin.simple(
            Project(scan(tiny_db, "PartSupp", "ps"),
                    [ProjectItem(ColumnRef("ps.suppkey"), "psk")]),
            inner,
            [("psk", "sk")],
        )
        assert est.evaluation_cost(outer) > 5 * est_relaxed.evaluation_cost(outer)

    def test_distinct_keeps_cardinality(self, estimator, tiny_db):
        base = Project(scan(tiny_db, "Supplier", "s"),
                       [ProjectItem(ColumnRef("s.suppkey"), "k")])
        assert estimator.cardinality(Distinct(base)) == estimator.cardinality(base)


class TestCaching:
    def test_cache_counts_requests_and_hits(self, tiny_db):
        cache = EstimateCache()
        estimator = CostEstimator(tiny_db, CostModel(), cache=cache)
        plan = scan(tiny_db, "Supplier", "s")
        estimator.estimate(plan)
        first = cache.requests
        estimator.estimate(plan)
        estimator.estimate(Scan(tiny_db.schema.table("Supplier"), "s"))
        assert cache.requests == first
        assert cache.hits == 2

    def test_cache_clear(self, tiny_db):
        cache = EstimateCache()
        estimator = CostEstimator(tiny_db, CostModel(), cache=cache)
        estimator.estimate(scan(tiny_db, "Supplier", "s"))
        cache.clear()
        assert cache.requests == 0
        estimator.estimate(scan(tiny_db, "Supplier", "s"))
        assert cache.requests == 1


class TestOrderingAgreement:
    def test_estimator_orders_like_engine(self, tiny_db):
        """The oracle's cost ordering matches actual execution ordering for
        plans of clearly different sizes — what the greedy planner needs."""
        model = CostModel()
        estimator = CostEstimator(tiny_db, model)
        engine = QueryEngine(tiny_db, model)
        small = scan(tiny_db, "Nation", "n")
        medium = InnerJoin(
            scan(tiny_db, "Supplier", "s"),
            scan(tiny_db, "Nation", "n"),
            [("s.nationkey", "n.nationkey")],
        )
        large = InnerJoin(
            InnerJoin(
                scan(tiny_db, "LineItem", "l"),
                scan(tiny_db, "Orders", "o"),
                [("l.orderkey", "o.orderkey")],
            ),
            scan(tiny_db, "Customer", "c"),
            [("o.custkey", "c.custkey")],
        )
        est_costs = [estimator.evaluation_cost(p) for p in (small, medium, large)]
        real_costs = [
            engine.execute(p).server_ms for p in (small, medium, large)
        ]
        assert est_costs == sorted(est_costs)
        assert real_costs == sorted(real_costs)
