"""Tests for the SilkRoute facade (repro.core.silkroute)."""

import pytest

from repro.common.errors import PlanError, TimeoutExceeded
from repro.core.partition import Partition
from repro.core.silkroute import SilkRoute
from repro.core.sqlgen import PlanStyle
from repro.relational.connection import Connection, SourceDescription
from repro.relational.engine import CostModel
from repro.bench.queries import QUERY_1, SUPPLIER_DTD
from repro.xmlgen.dtd import parse_dtd, validate_document


@pytest.fixture
def silk(tiny_db):
    return SilkRoute(Connection(tiny_db, CostModel()))


@pytest.fixture
def view(silk):
    return silk.define_view(QUERY_1)


class TestDefineView:
    def test_view_tree_built_and_labeled(self, view):
        assert len(view.tree.nodes) == 10
        assert view.tree.node((1, 4)).label == "*"

    def test_named_partitions(self, view):
        assert len(view.unified_partition().kept) == 9
        assert len(view.fully_partitioned().kept) == 0


class TestExplain:
    def test_explain_unified(self, view):
        [sql] = view.explain("unified")
        assert "LEFT OUTER JOIN" in sql

    def test_explain_fully_partitioned(self, view):
        sqls = view.explain("fully-partitioned")
        assert len(sqls) == 10
        assert all("ORDER BY" in sql for sql in sqls)

    def test_explain_unknown_strategy(self, view):
        with pytest.raises(PlanError, match="unknown strategy"):
            view.explain("bogus")

    def test_explain_custom_partition(self, view):
        sqls = view.explain(Partition([(1, 4)]))
        assert len(sqls) == 9


class TestMaterialize:
    def test_default_uses_greedy(self, view, tiny_db):
        result = view.materialize(root_tag="view")
        assert result.xml.startswith("<view>")
        assert result.report.n_streams >= 1
        assert result.report.total_ms > 0
        dtd = parse_dtd(SUPPLIER_DTD)
        validate_document(result.xml, dtd, root="view")

    def test_strategies_agree_on_document(self, view):
        unified = view.materialize("unified", reduce=False).xml
        fully = view.materialize("fully-partitioned", reduce=False).xml
        greedy = view.materialize(reduce=True).xml
        assert unified == fully == greedy

    def test_outer_union_style_agrees(self, view):
        a = view.materialize("unified", style=PlanStyle.OUTER_JOIN, reduce=False)
        b = view.materialize("unified", style=PlanStyle.OUTER_UNION, reduce=False)
        assert a.xml == b.xml

    def test_indent(self, view):
        xml = view.materialize("fully-partitioned", indent=2).xml
        assert "\n  <supplier>" in xml

    def test_report_streams(self, view):
        result = view.materialize("fully-partitioned")
        assert result.report.n_streams == 10
        assert len(result.report.streams) == 10
        assert result.report.query_ms == pytest.approx(
            sum(s.server_ms for s in result.report.streams)
        )

    def test_timeout_raises(self, view):
        with pytest.raises(TimeoutExceeded):
            view.materialize("unified", budget_ms=0.001)


class TestSourceDescription:
    def test_source_description_blocks_unsupported(self, tiny_db):
        conn = Connection(tiny_db, CostModel())
        silk = SilkRoute(
            conn, source=SourceDescription(supports_left_outer_join=False)
        )
        view = silk.define_view(QUERY_1)
        with pytest.raises(PlanError, match="OUTER JOIN"):
            view.materialize(view.unified_partition())
        # Fully partitioned plans need neither outer joins nor unions.
        assert view.materialize(view.fully_partitioned()).xml


class TestGreedyIntegration:
    def test_greedy_plan_structure(self, view):
        plan = view.greedy_plan()
        assert plan.oracle_requests > 0
        described = plan.describe()
        assert described["family_size"] == 2 ** len(plan.optional)
        assert plan.recommended() in plan.partitions()

    def test_greedy_avoids_blowup(self, view, tiny_db):
        """The recommended plan never keeps the chain that triggers the
        nested outer-join re-evaluation."""
        plan = view.greedy_plan(reduce=False)
        kept = plan.mandatory | plan.optional
        chain = {(1, 4), (1, 4, 2)}
        deep = {(1, 4, 2, 1), (1, 4, 2, 2), (1, 4, 2, 3)}
        assert not (chain <= kept and kept & deep)


class TestExplainWith:
    def test_use_with_emits_ctes(self, view):
        sqls = view.explain("unified", reduce=False, use_with=True)
        assert any(sql.startswith("WITH nq_1 AS (") for sql in sqls)

    def test_plain_explain_has_no_ctes(self, view):
        sqls = view.explain("unified", reduce=False)
        assert not any(sql.startswith("WITH") for sql in sqls)


class TestPlannerCaching:
    def test_planner_reused_per_style_and_reduce(self, view):
        first = view.greedy_plan()
        assert first.oracle_requests > 0
        assert len(view._planners) == 1
        [planner] = view._planners.values()
        view.greedy_plan()
        assert len(view._planners) == 1
        assert next(iter(view._planners.values())) is planner
        # The memoized oracle answered every repeated component query.
        assert planner.oracle_requests == first.oracle_requests
        view.greedy_plan(reduce=False)
        view.greedy_plan(style=PlanStyle.OUTER_UNION)
        assert len(view._planners) == 3

    def test_keep_passthrough(self, view):
        plan = view.greedy_plan(keep=[(1, 4)])
        assert (1, 4) in (plan.mandatory | plan.optional)
        # A distinct keep list is a distinct planner.
        assert (PlanStyle.OUTER_JOIN, True, ((1, 4),)) in view._planners
