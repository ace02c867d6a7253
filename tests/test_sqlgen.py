"""Tests for SQL generation from partitioned view trees (repro.core.sqlgen)."""

import pytest

from repro.core.greedy import GreedyPlanner
from repro.core.partition import (
    Partition,
    enumerate_partitions,
    fully_partitioned,
    unified_partition,
)
from repro.core.sqlgen import PlanStyle, SqlGenerator, rule_to_algebra
from repro.relational.connection import Connection
from repro.relational.engine import CostModel
from repro.relational.estimator import CostEstimator
from repro.relational.algebra import (
    ColumnRef,
    ConstantColumn,
    Distinct,
    InnerJoin,
    LeftOuterJoin,
    OuterUnion,
    Project,
    ProjectItem,
    Scan,
    Sort,
    count_operators,
    outer_join_nesting,
)
from repro.relational.types import SqlType


@pytest.fixture
def generator(q1_tree, tiny_db):
    return SqlGenerator(q1_tree, tiny_db.schema)


class TestStreamSpecs:
    def test_one_spec_per_subtree(self, generator, q1_tree):
        partition = Partition([(1, 2), (1, 4)])
        specs = generator.streams_for_partition(partition)
        assert len(specs) == 8

    def test_canonical_columns_fig9_layout(self, generator, q1_tree):
        """Fig. 9: the L tag columns lead, then the Skolem-term variables
        in (p, q) order."""
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        names = spec.column_names
        assert names[:4] == ("L1", "L2", "L3", "L4")
        assert names[4] == "v1_1_suppkey"
        stv_names = names[4:]
        assert list(stv_names) == [s.name for s in spec.stvs]

    def test_sort_keys_interleaved(self, generator, q1_tree):
        """Sec. 3.2: sorted by L1, V(1,*), L2, V(2,*), ... — the sort key
        interleaves levels even though the column layout leads with Ls."""
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        keys = list(spec.sort_keys)
        assert keys[0] == "L1"
        assert keys[1] == "v1_1_suppkey"
        assert keys[2] == "L2"
        assert set(keys) == set(spec.column_names)

    def test_leaf_subtree_l_levels(self, generator, q1_tree):
        specs = generator.streams_for_partition(fully_partitioned(q1_tree))
        by_label = {s.label: s for s in specs}
        # A single-node subtree at depth 2 carries L1 and L2 (Fig. 10).
        nation = by_label["S1.2"]
        assert nation.l_levels == (1, 2)
        assert nation.column_names[:2] == ("L1", "L2")

    def test_upper_l_tags_constant(self, generator, q1_tree, tiny_conn):
        specs = generator.streams_for_partition(fully_partitioned(q1_tree))
        nation = [s for s in specs if s.label == "S1.2"][0]
        rows = tiny_conn.execute(nation.plan).rows
        assert all(row[0] == 1 and row[1] == 2 for row in rows)

    def test_unit_paths(self, generator, q1_tree):
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        assert len(spec.unit_paths) == 10
        path = spec.unit_paths[(1, 4, 2)]
        assert [u.index for u in path] == [(1,), (1, 4), (1, 4, 2)]

    def test_feature_flags(self, generator, q1_tree):
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        assert spec.uses_outer_join()
        assert spec.uses_union()
        leaf_specs = generator.streams_for_partition(fully_partitioned(q1_tree))
        assert not any(s.uses_outer_join() for s in leaf_specs)
        assert not any(s.uses_union() for s in leaf_specs)


class TestOuterJoinStyle:
    def test_unified_plan_structure(self, generator, q1_tree):
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        plan = spec.plan
        assert isinstance(plan, Sort)
        # One outer join per internal node with children: S1, S1.4, S1.4.2.
        assert count_operators(plan, LeftOuterJoin) == 3
        assert outer_join_nesting(plan) == 3
        assert not spec.compact

    def test_tagged_branches(self, generator, q1_tree):
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        joins = [
            op for op in _walk(spec.plan) if isinstance(op, LeftOuterJoin)
        ]
        top = max(joins, key=lambda j: len(j.branches))
        assert len(top.branches) == 4  # supplier's four children
        tags = {(b.tag_column, b.tag_value) for b in top.branches}
        assert tags == {("L2", 1), ("L2", 2), ("L2", 3), ("L2", 4)}

    def test_single_node_plan_is_flat(self, generator, q1_tree):
        specs = generator.streams_for_partition(fully_partitioned(q1_tree))
        for spec in specs:
            assert count_operators(spec.plan, LeftOuterJoin) == 0
            assert count_operators(spec.plan, Distinct) == 1

    def test_node_query_joins_in_rule_order(self, generator, q1_tree, tiny_db):
        """The join chain folds atoms in scope order so parent prefixes are
        shared subexpressions."""
        specs = generator.streams_for_partition(fully_partitioned(q1_tree))
        by_label = {s.label: s for s in specs}
        part_scans = [
            op.table_schema.name
            for op in _walk(by_label["S1.4"].plan)
            if isinstance(op, Scan)
        ]
        assert part_scans == ["Supplier", "PartSupp", "Part"]

    def test_prefix_sharing_fingerprints(self, generator, q1_tree):
        """The part node's base join is a structural prefix of pname's."""
        specs = generator.streams_for_partition(fully_partitioned(q1_tree))
        by_label = {s.label: s for s in specs}
        part_joins = {
            op.fingerprint()
            for op in _walk(by_label["S1.4"].plan)
            if isinstance(op, (InnerJoin, Scan))
        }
        pname_joins = {
            op.fingerprint()
            for op in _walk(by_label["S1.4.1"].plan)
            if isinstance(op, (InnerJoin, Scan))
        }
        assert part_joins <= pname_joins


class TestOuterUnionStyle:
    def test_branch_per_node(self, q1_tree, tiny_db):
        generator = SqlGenerator(
            q1_tree, tiny_db.schema, style=PlanStyle.OUTER_UNION
        )
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        unions = [op for op in _walk(spec.plan) if isinstance(op, OuterUnion)]
        assert len(unions) == 1
        assert len(unions[0].inputs) == 10
        assert spec.compact

    def test_inner_joins_for_one_edges(self, q1_tree, tiny_db):
        generator = SqlGenerator(
            q1_tree, tiny_db.schema, style=PlanStyle.OUTER_UNION
        )
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        # Path to S1.1 (label '1') uses an inner join; path to S1.4
        # (label '*') uses an outer join.
        assert count_operators(spec.plan, LeftOuterJoin) > 0
        assert outer_join_nesting(spec.plan) <= 2

    def test_same_rows_as_outer_join_style_after_decode(
        self, q1_tree, tiny_db, tiny_conn
    ):
        """Both styles must produce the same XML; row multisets differ
        (outer-union has extra bare rows) but instances agree — covered by
        the integration tests; here we just check both execute."""
        for style in (PlanStyle.OUTER_JOIN, PlanStyle.OUTER_UNION):
            generator = SqlGenerator(q1_tree, tiny_db.schema, style=style)
            [spec] = generator.streams_for_partition(unified_partition(q1_tree))
            result = tiny_conn.execute(spec.plan)
            assert len(result) > 0


class TestReducedGeneration:
    def test_reduced_unified_fewer_rows(self, q1_tree, tiny_db, tiny_conn):
        plain = SqlGenerator(q1_tree, tiny_db.schema, reduce=False)
        reduced = SqlGenerator(q1_tree, tiny_db.schema, reduce=True)
        partition = unified_partition(q1_tree)
        [plain_spec] = plain.streams_for_partition(partition)
        [reduced_spec] = reduced.streams_for_partition(partition)
        plain_rows = tiny_conn.execute(plain_spec.plan)
        reduced_rows = tiny_conn.execute(reduced_spec.plan)
        assert len(reduced_rows) < len(plain_rows)

    def test_reduced_spec_keeps_all_stvs(self, q1_tree, tiny_db):
        reduced = SqlGenerator(q1_tree, tiny_db.schema, reduce=True)
        [spec] = reduced.streams_for_partition(unified_partition(q1_tree))
        fields = {s.field_hint for s in spec.stvs}
        assert "suppkey" in fields and "orderkey" in fields

    def test_keep_parameter_passes_through(self, q1_tree, tiny_db):
        reduced = SqlGenerator(
            q1_tree, tiny_db.schema, reduce=True, keep=[(1, 2)]
        )
        [spec] = reduced.streams_for_partition(unified_partition(q1_tree))
        [root, *_] = next(iter(spec.unit_paths.values()))
        assert len(tuple(root.walk())) == 4


class TestExecutionRowShape:
    def test_bare_supplier_rows_present(self, q1_tree, tiny_db, tiny_conn):
        """Suppliers without parts appear with NULL deeper levels — the
        outer join of Sec. 2."""
        generator = SqlGenerator(q1_tree, tiny_db.schema)
        partition = Partition([(1, 4)])  # supplier-part subtree
        specs = generator.streams_for_partition(partition)
        supplier_spec = specs[0]
        rows = tiny_conn.execute(supplier_spec.plan).rows
        names = supplier_spec.column_names
        l2 = names.index("L2")
        stocked = {r[1] for r in tiny_db.table("PartSupp").rows}
        bare = [row for row in rows if row[l2] is None]
        assert bare
        suppkey_pos = names.index("v1_1_suppkey")
        assert all(row[suppkey_pos] not in stocked for row in bare)

    def test_rows_sorted_by_spec_keys(self, q1_tree, tiny_db, tiny_conn):
        from repro.common.ordering import sort_key

        generator = SqlGenerator(q1_tree, tiny_db.schema)
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        rows = tiny_conn.execute(spec.plan).rows
        positions = [spec.column_names.index(k) for k in spec.sort_keys]
        keys = [sort_key(tuple(row[p] for p in positions)) for row in rows]
        assert keys == sorted(keys)


class _Unmemoized(SqlGenerator):
    """Rebuilds every rule's base query wherever it occurs, and keeps
    every operator it builds (no hash-consing)."""

    def _rule_query(self, unit, rule):
        return rule_to_algebra(rule, self.schema)

    def _op(self, op):
        return op


def _base_queries(specs):
    return {id(op) for spec in specs for op in _walk(spec.plan)
            if isinstance(op, Distinct)}


class TestRuleMemo:
    """One base query per rule value: shared by every spec that contains
    the rule, and indistinguishable from rebuilt ones."""

    @pytest.mark.parametrize("tree_name", ["q1_tree", "q2_tree"])
    @pytest.mark.parametrize("style", list(PlanStyle))
    @pytest.mark.parametrize("reduce", [False, True])
    def test_specs_equal_rebuilt_ones(self, request, tiny_db, tree_name,
                                      style, reduce):
        tree = request.getfixturevalue(tree_name)
        memoized, rebuilt = (
            cls(tree, tiny_db.schema, style=style, reduce=reduce)
            for cls in (SqlGenerator, _Unmemoized)
        )
        for partition in list(enumerate_partitions(tree))[::5]:
            specs = memoized.streams_for_partition(partition)
            reference = rebuilt.streams_for_partition(partition)
            assert [s.sql for s in specs] == [s.sql for s in reference]
            assert [s.plan.fingerprint() for s in specs] \
                == [s.plan.fingerprint() for s in reference]

    def test_components_share_base_queries(self, q1_tree, tiny_db):
        rules = {node.rules[0] for node in q1_tree.nodes}
        assert len(rules) == 9   # <order> and its <okey> share one rule
        for cls, shared in ((SqlGenerator, True), (_Unmemoized, False)):
            generator = cls(q1_tree, tiny_db.schema)
            unified = generator.streams_for_partition(
                unified_partition(q1_tree))
            leaves = generator.streams_for_partition(
                fully_partitioned(q1_tree))
            common = _base_queries(unified) & _base_queries(leaves)
            assert len(common) == (len(rules) if shared else 0)

    @pytest.mark.parametrize("tree_name", ["q1_tree", "q2_tree"])
    @pytest.mark.parametrize("reduce", [False, True])
    def test_greedy_asks_the_same_questions(self, request, tiny_db,
                                            tree_name, reduce):
        tree = request.getfixturevalue(tree_name)
        planners = []
        for cls in (SqlGenerator, _Unmemoized):
            planner = GreedyPlanner(
                tree, tiny_db.schema, CostEstimator(tiny_db, CostModel()),
                reduce=reduce,
            )
            planner.generator = cls(tree, tiny_db.schema, reduce=reduce)
            planners.append((planner, planner.plan()))
        (memoized, plan), (rebuilt, reference) = planners
        assert plan == reference
        assert plan.oracle_requests == reference.oracle_requests > 0
        assert memoized._component_cost == rebuilt._component_cost


class TestHashConsing:
    """The generator keeps one operator per (fingerprint, columns): its
    specs share every equal sub-plan, and only equal ones."""

    @pytest.mark.parametrize("style", list(PlanStyle))
    @pytest.mark.parametrize("reduce", [False, True])
    def test_equal_subplans_are_one_object(self, q2_tree, tiny_db, style,
                                           reduce):
        generator = SqlGenerator(q2_tree, tiny_db.schema, style=style,
                                 reduce=reduce)
        seen, stack, visits = {}, [], 0
        for partition in enumerate_partitions(q2_tree):
            stack.extend(spec.plan for spec
                         in generator.streams_for_partition(partition))
        while stack:
            op = stack.pop()
            visits += 1
            assert seen.setdefault((op.fingerprint(), op.columns()), op) is op
            if not isinstance(op, Distinct):   # a rule's query: memoized
                stack.extend(op.children)
        assert visits > 3 * len(seen)

    def test_a_null_keeps_its_declared_type(self, q1_tree, tiny_db):
        """Two plans that differ only in a NULL constant's type share a
        fingerprint, not an object: each keeps its columns and is charged
        as the tuple engine charges it."""
        generator = SqlGenerator(q1_tree, tiny_db.schema)
        scan = Scan(tiny_db.schema.table("Nation"), "n")

        def plan(sql_type):
            return generator._op(Project(scan, [
                ProjectItem(ColumnRef("n.nationkey"), "k"),
                ConstantColumn("v", None, sql_type),
            ]))

        integer, varchar = plan(SqlType.INTEGER), plan(SqlType.VARCHAR)
        assert integer is not varchar
        assert integer.fingerprint() == varchar.fingerprint()
        assert plan(SqlType.INTEGER) is integer
        for made, sql_type in ((integer, SqlType.INTEGER),
                               (varchar, SqlType.VARCHAR)):
            assert made.columns()[1].sql_type is sql_type
            reference, batch = (
                Connection(tiny_db, CostModel(), engine=mode).execute(made)
                for mode in ("tuple", "batch"))
            assert batch.columns == reference.columns == made.columns()
            assert (batch.rows, batch.server_ms, batch.transfer_ms) == (
                reference.rows, reference.server_ms, reference.transfer_ms)


def _walk(plan):
    from repro.relational.algebra import walk

    return walk(plan)
