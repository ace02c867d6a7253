"""Tests for the cost/cardinality oracle (repro.relational.estimator)."""

import hashlib

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
from repro.bench.queries import QUERY_1, QUERY_2, load_view
from repro.core.greedy import GreedyPlanner
from repro.core.sqlgen import PlanStyle
from repro.relational.engine import (
    CONFIG_A_COST_MODEL,
    CONFIG_B_COST_MODEL,
    CostModel,
    QueryEngine,
)
from repro.relational.estimator import CostEstimator, EstimateCache
from repro.tpch.configs import CONFIG_A, build_configuration


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


def _scan_with_names(db, table):
    """``table`` scanned as ``t`` plus the names of its first two columns."""
    base = scan(db, table, "t")
    return base, [col.name for col in base.columns()[:2]]


#: Plans whose input counts the oracle knows exactly (the table statistics).
EXACT_SHAPES = {
    "scan": lambda base, names: base,
    "filter": lambda base, names: Filter(
        base, Comparison(">", ColumnRef(names[0]), Literal(3))
    ),
    "project": lambda base, names: Project(
        base, [ProjectItem(ColumnRef(name), name) for name in names]
    ),
    "distinct": lambda base, names: Distinct(Project(
        base, [ProjectItem(ColumnRef(name), name) for name in names]
    )),
}


class TestOracleIsTheCostModel:
    """The oracle is the engine's :class:`CostModel` fed with guessed
    counts: where the guesses are exact, so is the cost — to the bit."""

    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    @pytest.mark.parametrize(
        "model", [CONFIG_A_COST_MODEL, CONFIG_B_COST_MODEL], ids=["A", "B"]
    )
    @pytest.mark.parametrize("mode", ["batch", "tuple"])
    def test_exact_counts_give_the_exact_cost(
        self, tiny_db, shape, model, mode
    ):
        estimator = CostEstimator(tiny_db, model)
        engine = QueryEngine(tiny_db, model, engine=mode)
        for table in tiny_db.schema.tables:
            plan = EXACT_SHAPES[shape](*_scan_with_names(tiny_db, table.name))
            charged = 0.0
            for label, ms in engine.execute(plan).breakdown.items():
                if label != "startup":
                    charged += ms
            assert estimator.evaluation_cost(plan) == charged, table.name

    @pytest.mark.parametrize("mode", ["batch", "tuple"])
    def test_shared_sub_plan_is_estimated_in_full_twice(self, tiny_db, mode):
        """The boundary of "the same cost model": both engines evaluate a
        sub-plan occurring on both sides of a join once and re-read it at
        ``rescan`` cost; the estimator charges it in full at each
        occurrence and never charges ``rescan``.  Teaching it to share
        moves greedy's plan family in 5 of the 8 (Q1, Q2) x style x reduce
        cells on Config A, so it is ROADMAP item 12's to flip — with the
        Fig. 18 comparison — not a refactor's."""
        model = CostModel()
        shared = scan(tiny_db, "Nation", "n")
        left = Project(shared, [ProjectItem(ColumnRef("n.nationkey"), "lk")])
        right = Project(shared, [ProjectItem(ColumnRef("n.nationkey"), "rk")])
        plan = InnerJoin(left, right, [("lk", "rk")])
        n = len(tiny_db.table("Nation"))

        breakdown = QueryEngine(tiny_db, model, engine=mode).execute(
            plan
        ).breakdown
        assert breakdown["scan"] == model.scan_ms(n)
        assert breakdown["rescan"] == model.rescan_ms(n)

        estimator = CostEstimator(tiny_db, model)
        for side in (left, right):
            assert estimator.evaluation_cost(side) == (
                model.scan_ms(n) + model.project_ms(n)
            )
        assert estimator.cardinality(plan) == n
        assert estimator.evaluation_cost(plan) == (
            estimator.evaluation_cost(left) + estimator.evaluation_cost(right)
            + model.join_ms(n, n, n)
        )


class TestEstimatesUnchanged:
    def test_greedy_estimate_digest_config_a(self):
        """Every estimate greedy-planning Q1 + Q2 x both styles x reduce
        on/off leaves in one cache on Config A, to the last bit of each
        ``server_ms`` (digest taken at commit 37d5f85, before the charge
        formulas moved onto ``CostModel``): tier-1's copy of what the
        Fig. 18 bench pins through the plan families."""
        db, _, estimator = build_configuration(CONFIG_A)
        for query in (QUERY_1, QUERY_2):
            tree = load_view(query, db.schema)
            for style in PlanStyle:
                for reduce in (False, True):
                    GreedyPlanner(
                        tree, db.schema, estimator, style=style, reduce=reduce
                    ).plan()
        cache = estimator.cache
        costs = sorted(repr(est.server_ms) for _, est in cache.items())
        assert len(costs) == 860
        assert (cache.requests, cache.hits) == (860, 902)
        assert hashlib.sha256("\n".join(costs).encode()).hexdigest() == (
            "b63799dd553123c082555a3ffb5c74acd99fc3f5953c9a31a405e5cc041458aa"
        )
