"""Tests for XML-QL queries over virtual views (repro.xmlql)."""

import pytest

from repro.common.errors import PlanError, RxlSyntaxError
from repro.relational.algebra import Scan, count_operators
from repro.xmlql.ast import ConstructNode
from repro.xmlql.compose import compose
from repro.xmlql.executor import execute_xmlql
from repro.xmlql.parser import parse_xmlql


class TestParser:
    def test_basic_query(self):
        query = parse_xmlql(
            'where <supplier><name>$s</name></supplier>, $s != "x" '
            "construct <r><n>$s</n></r>"
        )
        assert query.pattern.tag == "supplier"
        assert query.pattern.children[0].text_var == "s"
        assert query.conditions[0].op == "!="
        assert query.construct.tag == "r"

    def test_nested_pattern(self):
        query = parse_xmlql(
            "where <supplier><part><pname>$p</pname></part></supplier> "
            "construct <r>$p</r>"
        )
        part = query.pattern.children[0]
        assert part.tag == "part"
        assert part.children[0].text_var == "p"

    def test_literal_text_match(self):
        query = parse_xmlql(
            'where <supplier><nation>"FRANCE"</nation>'
            "<name>$s</name></supplier> construct <r>$s</r>"
        )
        assert query.pattern.children[0].text_literal == "FRANCE"

    def test_numeric_condition(self):
        query = parse_xmlql(
            "where <order><okey>$k</okey></order>, $k < 10 "
            "construct <r>$k</r>"
        )
        assert query.conditions[0].value == 10

    def test_construct_literals_and_nesting(self):
        query = parse_xmlql(
            "where <supplier><name>$s</name></supplier> "
            'construct <r><a>"hi"</a><b>$s</b></r>'
        )
        assert isinstance(query.construct.contents[0], ConstructNode)
        assert query.construct.variables() == ["s"]

    def test_mismatched_tags(self):
        with pytest.raises(RxlSyntaxError, match="mismatched"):
            parse_xmlql("where <a>$x</b> construct <r>$x</r>")

    def test_double_text_content_rejected(self):
        with pytest.raises(RxlSyntaxError, match="already has text"):
            parse_xmlql("where <a>$x $y</a> construct <r>$x</r>")

    def test_trailing_garbage(self):
        with pytest.raises(RxlSyntaxError, match="trailing"):
            parse_xmlql("where <a>$x</a> construct <r>$x</r> zzz")


class TestCompose:
    def test_simple_composition(self, q1_tree, tiny_db):
        query = parse_xmlql(
            "where <supplier><name>$s</name></supplier> construct <r>$s</r>"
        )
        composed = compose(query, q1_tree, tiny_db.schema)
        assert composed.var_columns["s"].endswith("name")
        assert {n.sfi for n in composed.matched_nodes} == {"S1", "S1.1"}
        # The composed SQL touches only the Supplier table.
        assert count_operators(composed.plan, Scan) == 1

    def test_deep_pattern_joins_path(self, q1_tree, tiny_db):
        query = parse_xmlql(
            "where <supplier><part><order><okey>$k</okey></order></part>"
            "</supplier> construct <r>$k</r>"
        )
        composed = compose(query, q1_tree, tiny_db.schema)
        scans = count_operators(composed.plan, Scan)
        assert scans == 5  # Supplier, PartSupp, Part, LineItem, Orders

    def test_mid_tree_pattern_root(self, q1_tree, tiny_db):
        """The pattern may start below the view root (<part> fragments)."""
        query = parse_xmlql(
            "where <part><pname>$p</pname></part> construct <r>$p</r>"
        )
        composed = compose(query, q1_tree, tiny_db.schema)
        assert {n.sfi for n in composed.matched_nodes} == {"S1.4", "S1.4.1"}

    def test_unknown_tag(self, q1_tree, tiny_db):
        query = parse_xmlql("where <widget>$w</widget> construct <r>$w</r>")
        with pytest.raises(PlanError, match="no <widget>"):
            compose(query, q1_tree, tiny_db.schema)

    def test_unknown_child(self, q1_tree, tiny_db):
        query = parse_xmlql(
            "where <supplier><widget>$w</widget></supplier> "
            "construct <r>$w</r>"
        )
        with pytest.raises(PlanError, match="no <widget> child"):
            compose(query, q1_tree, tiny_db.schema)

    def test_condition_on_unbound_variable(self, q1_tree, tiny_db):
        query = parse_xmlql(
            'where <supplier><name>$s</name></supplier>, $zz = "x" '
            "construct <r>$s</r>"
        )
        with pytest.raises(PlanError, match="unbound"):
            compose(query, q1_tree, tiny_db.schema)

    def test_construct_unbound_variable(self, q1_tree, tiny_db):
        query = parse_xmlql(
            "where <supplier><name>$s</name></supplier> "
            "construct <r>$zz</r>"
        )
        with pytest.raises(PlanError, match="unbound"):
            compose(query, q1_tree, tiny_db.schema)

    def test_binding_on_structural_node_rejected(self, q1_tree, tiny_db):
        # <supplier> has no text content of its own.
        query = parse_xmlql("where <supplier>$x</supplier> construct <r>$x</r>")
        with pytest.raises(PlanError, match="text value"):
            compose(query, q1_tree, tiny_db.schema)

    def test_no_variables_rejected(self, q1_tree, tiny_db):
        query = parse_xmlql(
            'where <supplier><nation>"FRANCE"</nation></supplier> '
            'construct <r>"x"</r>'
        )
        with pytest.raises(PlanError, match="binds no variables"):
            compose(query, q1_tree, tiny_db.schema)


class TestExecute:
    def test_bindings_match_reference(self, q1_tree, tiny_db, tiny_conn):
        """Results equal a hand-computed reference over the base tables."""
        result = execute_xmlql(
            "where <supplier><name>$s</name>"
            "<part><pname>$p</pname></part></supplier> "
            "construct <row><s>$s</s><p>$p</p></row>",
            q1_tree, tiny_conn,
        )
        supplier_name = {r[0]: r[1] for r in tiny_db.table("Supplier").rows}
        part_name = {r[0]: r[1] for r in tiny_db.table("Part").rows}
        expected = {
            (supplier_name[ps[1]], part_name[ps[0]])
            for ps in tiny_db.table("PartSupp").rows
        }
        assert result.bindings == len(expected)
        for s, p in expected:
            assert f"<s>{s}</s><p>{p}</p>" in result.xml

    def test_condition_filters(self, q1_tree, tiny_db, tiny_conn):
        some_supplier = tiny_db.table("Supplier").rows[0][1]
        result = execute_xmlql(
            "where <supplier><name>$s</name></supplier>, "
            f'$s = "{some_supplier}" construct <r>$s</r>',
            q1_tree, tiny_conn,
        )
        assert result.bindings == 1
        assert some_supplier in result.xml

    def test_literal_pattern_filters(self, q1_tree, tiny_db, tiny_conn):
        nation_of = {r[0]: r[3] for r in tiny_db.table("Supplier").rows}
        nation_name = {r[0]: r[1] for r in tiny_db.table("Nation").rows}
        target = nation_name[next(iter(nation_of.values()))]
        result = execute_xmlql(
            f'where <supplier><name>$s</name><nation>"{target}"</nation>'
            "</supplier> construct <r>$s</r>",
            q1_tree, tiny_conn,
        )
        expected = sum(
            1 for r in tiny_db.table("Supplier").rows
            if nation_name[r[3]] == target
        )
        assert result.bindings == expected

    def test_against_materialized_view(self, q1_tree, tiny_db, tiny_conn):
        """Virtual answers agree with grepping the materialized document."""
        from repro.core.partition import unified_partition
        from repro.core.sqlgen import SqlGenerator
        from repro.xmlgen.tagger import tag_streams

        generator = SqlGenerator(q1_tree, tiny_db.schema)
        specs = generator.streams_for_partition(unified_partition(q1_tree))
        streams = [tiny_conn.execute(s.plan) for s in specs]
        document, _ = tag_streams(q1_tree, specs, streams, root_tag="view")

        result = execute_xmlql(
            "where <order><customer>$c</customer></order> "
            "construct <r>$c</r>",
            q1_tree, tiny_conn,
        )
        import re

        materialized = set(re.findall(r"<customer>([^<]+)</customer>", document))
        virtual = set(re.findall(r"<r>([^<]+)</r>", result.xml))
        assert virtual == materialized

    def test_virtual_is_cheaper_than_materializing(self, q1_tree, tiny_db,
                                                   tiny_conn):
        """Sec. 7: fragment queries should not pay for the whole view."""
        from repro.core.partition import unified_partition
        from repro.core.sqlgen import SqlGenerator

        result = execute_xmlql(
            "where <supplier><name>$s</name></supplier> construct <r>$s</r>",
            q1_tree, tiny_conn,
        )
        generator = SqlGenerator(q1_tree, tiny_db.schema, reduce=True)
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        full = tiny_conn.execute(spec.plan)
        # At this tiny scale the per-query startup dominates, so just check
        # the fragment query is strictly cheaper and reads fewer tuples.
        assert result.server_ms < full.server_ms
        assert result.bindings < len(full)

    def test_no_root_tag(self, q1_tree, tiny_conn):
        result = execute_xmlql(
            "where <supplier><name>$s</name></supplier> construct <r>$s</r>",
            q1_tree, tiny_conn, root_tag=None,
        )
        assert result.xml.startswith("<r>")

    def test_result_fields(self, q1_tree, tiny_conn):
        result = execute_xmlql(
            "where <supplier><name>$s</name></supplier> construct <r>$s</r>",
            q1_tree, tiny_conn,
        )
        assert result.total_ms == result.server_ms + result.transfer_ms
        assert "SELECT" in result.sql
