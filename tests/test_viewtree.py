"""Tests for view-tree construction (repro.core.viewtree)."""

import pytest

from repro.common.errors import PlanError
from repro.core.viewtree import build_view_tree
from repro.rxl.parser import parse_rxl


class TestQuery1Shape:
    """The view tree of Fig. 6."""

    def test_ten_nodes_nine_edges(self, q1_tree):
        assert len(q1_tree.nodes) == 10
        assert len(q1_tree.edges) == 9

    def test_indices_breadth_first(self, q1_tree):
        sfis = [n.sfi for n in q1_tree.nodes]
        assert sfis == [
            "S1", "S1.1", "S1.2", "S1.3", "S1.4",
            "S1.4.1", "S1.4.2",
            "S1.4.2.1", "S1.4.2.2", "S1.4.2.3",
        ]

    def test_tags(self, q1_tree):
        tags = {n.sfi: n.tag for n in q1_tree.nodes}
        assert tags["S1"] == "supplier"
        assert tags["S1.4"] == "part"
        assert tags["S1.4.2"] == "order"
        assert tags["S1.4.2.3"] == "cnation"

    def test_skolem_args_match_paper(self, q1_tree):
        """S1(suppkey), S1.4(suppkey, partkey), S1.4.2(suppkey, partkey,
        orderkey) — the paper's Skolem terms."""
        args = {n.sfi: [a.field_hint for a in n.args] for n in q1_tree.nodes}
        assert args["S1"] == ["suppkey"]
        assert args["S1.4"] == ["suppkey", "partkey"]
        assert args["S1.4.2"] == ["suppkey", "partkey", "orderkey"]

    def test_variable_indices(self, q1_tree):
        """suppkey is (1,1); level-2 variables get consecutive ordinals."""
        suppkey = q1_tree.node((1,)).args[0]
        assert (suppkey.level, suppkey.ordinal) == (1, 1)
        name = q1_tree.node((1, 1)).args[1]
        assert (name.level, name.ordinal) == (2, 1)

    def test_variables_unified_across_joins(self, q1_tree):
        """$s.suppkey and $ps.suppkey are the same variable (the paper's
        single ``suppkey`` column)."""
        root_suppkey = q1_tree.node((1,)).args[0]
        part_args = q1_tree.node((1, 4)).args
        assert root_suppkey in part_args

    def test_key_args_subset_of_args(self, q1_tree):
        for node in q1_tree.nodes:
            assert set(node.key_args) <= set(node.args)

    def test_descendants_carry_ancestor_keys(self, q1_tree):
        for parent, child in q1_tree.edges:
            assert set(parent.key_args) <= set(child.args)

    def test_contents(self, q1_tree):
        name_node = q1_tree.node((1, 1))
        assert len(name_node.contents) == 1
        assert name_node.contents[0].field_hint == "name"
        assert q1_tree.node((1,)).contents == []

    def test_rules(self, q1_tree):
        """Rule bodies accumulate the enclosing scopes' atoms."""
        order = q1_tree.node((1, 4, 2)).rules[0]
        tables = [t for t, _ in order.atoms]
        assert tables == ["Supplier", "PartSupp", "Part", "LineItem", "Orders"]
        assert len(order.equalities) == 5

    def test_stvs_ordered(self, q1_tree):
        pairs = [(v.level, v.ordinal) for v in q1_tree.stvs]
        assert pairs == sorted(pairs)

    def test_max_depth(self, q1_tree):
        assert q1_tree.max_depth() == 4

    def test_node_lookup_error(self, q1_tree):
        with pytest.raises(PlanError):
            q1_tree.node((9, 9))


class TestQuery2Shape:
    """The view tree of Fig. 12: order is a child of supplier."""

    def test_shape(self, q2_tree):
        sfis = [n.sfi for n in q2_tree.nodes]
        # Document (preorder) listing.
        assert sfis == [
            "S1", "S1.1", "S1.2", "S1.3", "S1.4", "S1.4.1",
            "S1.5", "S1.5.1", "S1.5.2", "S1.5.3",
        ]

    def test_parallel_star_edges(self, q2_tree):
        assert q2_tree.node((1, 4)).label == "*"
        assert q2_tree.node((1, 5)).label == "*"

    def test_max_depth_three(self, q2_tree):
        assert q2_tree.max_depth() == 3


class TestBuilderBehaviour:
    def test_multiple_roots_rejected(self, schema):
        query = parse_rxl(
            "from Supplier $s construct <a>$s.name</a> <b>$s.name</b>"
        )
        with pytest.raises(PlanError, match="root"):
            build_view_tree(query, schema)

    def test_literal_condition_becomes_filter(self, schema):
        query = parse_rxl(
            'from Part $p where $p.size = "M" construct <t>$p.name</t>'
        )
        tree = build_view_tree(query, schema)
        rule = tree.root.rules[0]
        assert any(op == "=" for _, op, _ in rule.filters)

    def test_duplicate_table_gets_fresh_alias(self, schema):
        query = parse_rxl(
            "from Nation $n construct <t>$n.name"
            "{ from Nation $n2 where $n.regionkey = $n2.regionkey "
            "construct <u>$n2.name</u> }</t>"
        )
        tree = build_view_tree(query, schema)
        child = tree.node((1, 1))
        aliases = [a for _, a in child.rules[0].atoms]
        assert len(set(aliases)) == 2

    def test_simplify_args_drops_determined_keys(self, schema):
        """The paper's Sec. 3.1 simplification: with name unique in Nation,
        the nation node's Skolem term is (suppkey, name)."""
        query = parse_rxl(
            "from Supplier $s construct <supplier>"
            "{ from Nation $n where $s.nationkey = $n.nationkey "
            "construct <nation>$n.name</nation> }</supplier>"
        )
        plain = build_view_tree(query, schema, simplify_args=False)
        assert [a.field_hint for a in plain.node((1, 1)).args] == [
            "suppkey", "nationkey", "name"
        ]
        simplified = build_view_tree(query, schema, simplify_args=True)
        assert [a.field_hint for a in simplified.node((1, 1)).args] == [
            "suppkey", "name"
        ]

    def test_explicit_skolem_controls_args(self, schema):
        query = parse_rxl(
            "from Supplier $s construct "
            "<t ID=Grp($s.nationkey)>$s.name</t>"
        )
        tree = build_view_tree(query, schema)
        # Explicit term plus the displayed variable.
        assert [a.field_hint for a in tree.root.args] == ["nationkey", "name"]
        assert [a.field_hint for a in tree.root.key_args] == ["nationkey"]

    def test_explicit_skolem_fusion_multiple_rules(self, schema):
        """Two blocks constructing the same Skolem term fuse into one node
        with two rules (the paper's data-integration feature)."""
        query = parse_rxl(
            "from Region $r construct <doc>"
            "{ from Supplier $s construct <who ID=W($s.name)>$s.name</who> }"
            "{ from Customer $c construct <who ID=W($c.name)>$c.name</who> }"
            "</doc>"
        )
        tree = build_view_tree(query, schema)
        who_nodes = [n for n in tree.nodes if n.tag == "who"]
        assert len(who_nodes) == 1
        assert len(who_nodes[0].rules) == 2

    def test_fusion_with_conflicting_tags_rejected(self, schema):
        query = parse_rxl(
            "from Region $r construct <doc>"
            "{ from Supplier $s construct <a ID=W($s.name)>$s.name</a> }"
            "{ from Customer $c construct <b ID=W($c.name)>$c.name</b> }"
            "</doc>"
        )
        with pytest.raises(PlanError, match="Skolem"):
            build_view_tree(query, schema)

    def test_is_ancestor_of(self, q1_tree):
        root = q1_tree.node((1,))
        deep = q1_tree.node((1, 4, 2))
        assert root.is_ancestor_of(deep)
        assert not deep.is_ancestor_of(root)
        assert not root.is_ancestor_of(root)
