"""Tests for XML-QL queries over virtual views (repro.xmlql).

A query composes into an RXL view of its own, materialized through the one
pipeline every view takes.  Two things check the documents it writes:
goldens recorded from the hand-written executor the composition replaced
(``GOLDEN``), and an independent oracle, :func:`pattern_bindings`, which
evaluates the pattern with ``xml.etree`` over the *materialized* view.
"""

import hashlib
import operator
from xml.etree import ElementTree

import pytest

from repro.bench.queries import QUERY_1, QUERY_2
from repro.common.errors import PlanError, QueryError, RxlSyntaxError
from repro.core.silkroute import SilkRoute
from repro.relational.algebra import Scan, count_operators
from repro.relational.connection import Connection
from repro.tpch.configs import CONFIG_A, build_database
from repro.xmlql.ast import ConstructNode
from repro.xmlql.compose import compose
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

    def test_construct_skolem_term(self):
        query = parse_xmlql(
            "where <supplier><name>$s</name></supplier> "
            "construct <r ID=R($s)><n ID=N()>$s</n></r>"
        )
        assert query.construct.skolem == ("R", ("s",))
        assert query.construct.contents[0].skolem == ("N", ())
        assert query.construct.variables() == ["s", "s"]

    def test_mismatched_tags(self):
        with pytest.raises(RxlSyntaxError, match="mismatched"):
            parse_xmlql("where <a>$x</b> construct <r>$x</r>")

    def test_double_text_content_rejected(self):
        with pytest.raises(RxlSyntaxError, match="already has text"):
            parse_xmlql("where <a>$x $y</a> construct <r>$x</r>")

    def test_trailing_garbage(self):
        with pytest.raises(RxlSyntaxError, match="trailing"):
            parse_xmlql("where <a>$x</a> construct <r>$x</r> zzz")


def binding_rows(xml):
    """The binding tuples a ``<b><v>..</v>..</b>``-per-binding document
    spells: one tuple of child texts per top-level element."""
    return [tuple(child.text or "" for child in element)
            for element in ElementTree.fromstring(xml)]


_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def pattern_bindings(document, query):
    """The oracle: the set of binding tuples (pattern variables in pattern
    order, text as written) of ``query``'s pattern over a materialized
    view ``document``, by tag matching in ``xml.etree`` — every element
    with the root's tag, each child pattern over every child element with
    its tag, literal matches and ``where`` conditions applied."""
    variables = list(dict.fromkeys(query.pattern.variables()))
    found = set()
    for element in ElementTree.fromstring(document).iter(query.pattern.tag):
        for binding in _matches(query.pattern, element, {}):
            if all(_holds(c, binding[c.var]) for c in query.conditions):
                found.add(tuple(binding[v] for v in variables))
    return found


def _matches(pattern, element, binding):
    text = element.text or ""
    if pattern.text_literal is not None and text != pattern.text_literal:
        return []
    if pattern.text_var is not None:
        if binding.setdefault(pattern.text_var, text) != text:
            return []
    bindings = [binding]
    for child in pattern.children:
        bindings = [
            found for partial in bindings
            for sub in element.findall(child.tag)
            for found in _matches(child, sub, dict(partial))
        ]
    return bindings


def _holds(condition, text):
    value = condition.value
    if not isinstance(value, str):
        text = float(text)
    return _OPS[condition.op](text, value)


def assert_oracle_agrees(view, xmlql):
    """``view.query(xmlql)`` spells, once each, exactly the bindings the
    oracle finds in the materialized view (the template must be
    :func:`binding_rows`' shape, one child per pattern variable)."""
    rows = binding_rows(view.query(xmlql).xml)
    assert len(rows) == len(set(rows))
    document = view.materialize("unified").xml
    assert set(rows) == pattern_bindings(document, parse_xmlql(xmlql))
    return rows


@pytest.fixture(scope="module")
def q1_view(tiny_conn):
    return SilkRoute(tiny_conn).define_view(QUERY_1)


def composed_plan(tiny_conn, rxl):
    [spec] = SilkRoute(tiny_conn).define_view(rxl).specs("unified")
    return spec.plan


class TestCompose:
    def test_simple_composition(self, q1_tree, tiny_conn):
        query = parse_xmlql(
            "where <supplier><name>$s</name></supplier> construct <r>$s</r>"
        )
        rxl = compose(query, q1_tree)
        # S1 and S1.1 read only the Supplier table, which binds $s.
        assert rxl.startswith("from Supplier $s\nconstruct")
        assert "<r ID=_Q1($s.name)> $s.name </r>" in rxl
        assert count_operators(composed_plan(tiny_conn, rxl), Scan) == 1

    def test_deep_pattern_joins_path(self, q1_tree, tiny_conn):
        query = parse_xmlql(
            "where <supplier><part><order><okey>$k</okey></order></part>"
            "</supplier> construct <r>$k</r>"
        )
        rxl = compose(query, q1_tree)
        scans = count_operators(composed_plan(tiny_conn, rxl), Scan)
        assert scans == 5  # Supplier, PartSupp, Part, LineItem, Orders

    def test_mid_tree_pattern_root(self, q1_tree):
        """The pattern may start below the view root (<part> fragments)."""
        query = parse_xmlql(
            "where <part><pname>$p</pname></part> construct <r>$p</r>"
        )
        rxl = compose(query, q1_tree)
        # S1.4 and S1.4.1: the part's scope, nothing of its orders.
        assert rxl.startswith("from Supplier $s, PartSupp $ps, Part $p\n")
        assert "ID=_Q1($p.name)" in rxl

    def test_unknown_tag(self, q1_tree):
        query = parse_xmlql("where <widget>$w</widget> construct <r>$w</r>")
        with pytest.raises(PlanError, match="no <widget>"):
            compose(query, q1_tree)

    def test_unknown_child(self, q1_tree):
        query = parse_xmlql(
            "where <supplier><widget>$w</widget></supplier> "
            "construct <r>$w</r>"
        )
        with pytest.raises(PlanError, match="no <widget> child"):
            compose(query, q1_tree)

    def test_condition_on_unbound_variable(self, q1_tree):
        query = parse_xmlql(
            'where <supplier><name>$s</name></supplier>, $zz = "x" '
            "construct <r>$s</r>"
        )
        with pytest.raises(PlanError, match="unbound"):
            compose(query, q1_tree)

    def test_construct_unbound_variable(self, q1_tree):
        query = parse_xmlql(
            "where <supplier><name>$s</name></supplier> "
            "construct <r>$zz</r>"
        )
        with pytest.raises(PlanError, match="unbound"):
            compose(query, q1_tree)

    def test_skolem_term_unbound_variable(self, q1_tree):
        query = parse_xmlql(
            "where <supplier><name>$s</name></supplier> "
            "construct <r ID=R($zz)>$s</r>"
        )
        with pytest.raises(PlanError, match="unbound"):
            compose(query, q1_tree)

    def test_binding_on_structural_node_rejected(self, q1_tree):
        # <supplier> has no text content of its own.
        query = parse_xmlql("where <supplier>$x</supplier> construct <r>$x</r>")
        with pytest.raises(PlanError, match="text value"):
            compose(query, q1_tree)

    def test_no_variables_rejected(self, q1_tree):
        query = parse_xmlql(
            'where <supplier><nation>"FRANCE"</nation></supplier> '
            'construct <r>"x"</r>'
        )
        with pytest.raises(PlanError, match="binds no variables"):
            compose(query, q1_tree)

    def test_literals_are_escaped(self, q1_tree, q1_view):
        query = parse_xmlql(
            'where <supplier><name>$s</name></supplier>, $s = "a\\"b\\\\" '
            'construct <r>"x\\"y"</r>'
        )
        rxl = compose(query, q1_tree)
        assert '$s.name = "a\\"b\\\\"' in rxl
        assert '"x\\"y"' in rxl
        result = q1_view.query(
            "where <supplier><name>$s</name></supplier> "
            'construct <r>$s " x\\"y"</r>')
        texts = [r.text for r in ElementTree.fromstring(result.xml)]
        assert texts and all(t.endswith(' x"y') for t in texts)

    def test_pattern_literals_take_the_column_type(self, q1_tree):
        def where(literal):
            return compose(parse_xmlql(
                f'where <order><okey>"{literal}"</okey>'
                "<customer>$c</customer></order> construct <r>$c</r>"),
                q1_tree).split("construct")[0]

        assert "$l.orderkey = 7\n" in where("7")
        assert "$l.orderkey = -7\n" in where("-7")
        for spelling in ("07", "7.0", "+7", " 7", "seven", "7_0"):
            assert "$l.orderkey != $l.orderkey" in where(spelling), spelling

    def test_numbers_are_written_positionally(self, q1_tree, q1_view):
        every = "where <order><okey>$k</okey></order>"
        query = every + ", $k > 0.00001 construct <r>$k</r>"
        assert "$l.orderkey > 0.00001" in compose(parse_xmlql(query), q1_tree)
        assert q1_view.query(query).xml == q1_view.query(
            every + " construct <r>$k</r>").xml


class TestExecute:
    def test_bindings_match_reference(self, q1_view, tiny_db):
        """Results equal a hand-computed reference over the base tables."""
        result = q1_view.query(
            "where <supplier><name>$s</name>"
            "<part><pname>$p</pname></part></supplier> "
            "construct <row><s>$s</s><p>$p</p></row>",
        )
        supplier_name = {r[0]: r[1] for r in tiny_db.table("Supplier").rows}
        part_name = {r[0]: r[1] for r in tiny_db.table("Part").rows}
        expected = {
            (supplier_name[ps[1]], part_name[ps[0]])
            for ps in tiny_db.table("PartSupp").rows
        }
        assert result.xml.count("<row>") == len(expected)
        for s, p in expected:
            assert f"<s>{s}</s><p>{p}</p>" in result.xml

    def test_condition_filters(self, q1_view, tiny_db):
        some_supplier = tiny_db.table("Supplier").rows[0][1]
        result = q1_view.query(
            "where <supplier><name>$s</name></supplier>, "
            f'$s = "{some_supplier}" construct <r>$s</r>',
        )
        assert result.xml.count("<r>") == 1
        assert some_supplier in result.xml

    def test_literal_pattern_filters(self, q1_view, tiny_db):
        nation_of = {r[0]: r[3] for r in tiny_db.table("Supplier").rows}
        nation_name = {r[0]: r[1] for r in tiny_db.table("Nation").rows}
        target = nation_name[next(iter(nation_of.values()))]
        result = q1_view.query(
            f'where <supplier><name>$s</name><nation>"{target}"</nation>'
            "</supplier> construct <r>$s</r>",
        )
        expected = sum(
            1 for r in tiny_db.table("Supplier").rows
            if nation_name[r[3]] == target
        )
        assert result.xml.count("<r>") == expected

    def test_against_materialized_view(self, q1_tree, tiny_db, tiny_conn,
                                       q1_view):
        """Virtual answers agree with grepping the materialized document."""
        from repro.core.partition import unified_partition
        from repro.core.sqlgen import SqlGenerator
        from repro.xmlgen.tagger import tag_streams

        generator = SqlGenerator(q1_tree, tiny_db.schema)
        specs = generator.streams_for_partition(unified_partition(q1_tree))
        streams = [tiny_conn.execute(s.plan) for s in specs]
        document, _ = tag_streams(q1_tree, specs, streams, root_tag="view")

        result = q1_view.query(
            "where <order><customer>$c</customer></order> "
            "construct <r>$c</r>",
        )
        import re

        materialized = set(re.findall(r"<customer>([^<]+)</customer>", document))
        virtual = set(re.findall(r"<r>([^<]+)</r>", result.xml))
        assert virtual == materialized

    def test_virtual_is_cheaper_than_materializing(self, q1_tree, tiny_db,
                                                   tiny_conn, q1_view):
        """Sec. 7: fragment queries should not pay for the whole view."""
        from repro.core.partition import unified_partition
        from repro.core.sqlgen import SqlGenerator

        result = q1_view.query(
            "where <supplier><name>$s</name></supplier> construct <r>$s</r>",
        )
        generator = SqlGenerator(q1_tree, tiny_db.schema, reduce=True)
        [spec] = generator.streams_for_partition(unified_partition(q1_tree))
        full = tiny_conn.execute(spec.plan)
        # At this tiny scale the per-query startup dominates, so just check
        # the fragment query is strictly cheaper and reads fewer tuples.
        assert result.report.query_ms < full.server_ms
        assert result.xml.count("<r>") < len(full)

    def test_no_root_tag(self, q1_view):
        result = q1_view.query(
            "where <supplier><name>$s</name></supplier> construct <r>$s</r>",
            root_tag=None,
        )
        assert result.xml.startswith("<r>")

    def test_result_fields(self, q1_view):
        result = q1_view.query(
            "where <supplier><name>$s</name></supplier> construct <r>$s</r>",
        )
        report = result.report
        assert report.total_ms == report.query_ms + report.transfer_ms
        assert report.n_streams == 1
        assert "SELECT" in report.streams[0].sql


#: The patterns of ``examples/virtual_view.py`` and of :class:`TestExecute`,
#: with an order-key pattern whose condition is numeric.
PATTERNS = {
    "iranian_sales": """
where <supplier>
        <nation>"IRAN"</nation>
        <name>$s</name>
        <part>
          <pname>$p</pname>
          <order><customer>$c</customer></order>
        </part>
      </supplier>
construct
  <sale><supplier>$s</supplier><part>$p</part><buyer>$c</buyer></sale>
""",
    "cheap_lookup": """
where <supplier><name>$s</name><region>$r</region></supplier>,
      $r = "EUROPE"
construct <european>$s</european>
""",
    "supplier_parts": ("where <supplier><name>$s</name>"
                       "<part><pname>$p</pname></part></supplier> "
                       "construct <row><s>$s</s><p>$p</p></row>"),
    "supplier_names": ("where <supplier><name>$s</name></supplier> "
                       "construct <r>$s</r>"),
    "order_customers": ("where <order><customer>$c</customer></order> "
                        "construct <r>$c</r>"),
    "order_keys": ("where <order><okey>$k</okey><customer>$c</customer>"
                   "</order>, $k < 100 construct <o><k>$k</k><c>$c</c></o>"),
}

#: (query, pattern, indent) -> (sha256 of the UTF-8 document, characters),
#: at Configuration A under the root tag ``result``.  Recorded from the
#: hand-written executor (one SQL query, its rows instantiated into the
#: template) before composition into a view replaced it; Query 2 has no
#: ``<order>`` under ``<part>``, so no ``iranian_sales`` row.
GOLDEN = {
    ("q1", "iranian_sales", None): (
        "a3fba2d79bc4ae61a55595f6313f466ec8f39d939e0578210bc474ed5432da71",
        4125),
    ("q1", "iranian_sales", 2): (
        "1db689c99c5eb571dac8576c1e153eda114faf30caa0df8235decef01bd57f06",
        4903),
    ("q1", "cheap_lookup", None): (
        "42068a3ae5d13f6dfd9cea5f8e210bef3b9769410d25db635f8eca1d38db0816",
        125),
    ("q1", "cheap_lookup", 2): (
        "2d2b56f2c0eef0d342cb9ef56860dc8046ee564a4f200b2b6b4f2403a02f8127",
        135),
    ("q1", "supplier_parts", None): (
        "7b0e5d25435fe3c0e04e8f33f2ebd8bfb1393dd1bca37ffd5cd1fbf34aed2c83",
        4796),
    ("q1", "supplier_parts", 2): (
        "efd6136e78c21400c0aa33e00e5fa5c010795cae6066be02237e4ba4fd09baff",
        6077),
    ("q1", "supplier_names", None): (
        "0e9ad5bb07899b4a88c9e20e96d28a2f09b4b87fe098841084779cc2d13d687d",
        457),
    ("q1", "supplier_names", 2): (
        "7636da14abb3ba73dd5045c74a6ba428dca672dc8fbebec074031f208d9416a7",
        518),
    ("q1", "order_customers", None): (
        "465768c023e5e8ec5eaaee34726ad1df1fa68cb7dbcf146d87b846ea61d86d7c",
        1117),
    ("q1", "order_customers", 2): (
        "f4df661cfb7bd09a63cf484d8c758904dd2faa14bebe40d48c8428cbf398e28f",
        1268),
    ("q1", "order_keys", None): (
        "975ea548acacec96322a5b81de788366fae7ed5898c6dd536fe5281ad1e378a3",
        3770),
    ("q1", "order_keys", 2): (
        "665869abe2839b07664da7ca1957a7d8d23018cc1d5b033e0c89d139a163a495",
        5355),
    ("q2", "cheap_lookup", None): (
        "42068a3ae5d13f6dfd9cea5f8e210bef3b9769410d25db635f8eca1d38db0816",
        125),
    ("q2", "cheap_lookup", 2): (
        "2d2b56f2c0eef0d342cb9ef56860dc8046ee564a4f200b2b6b4f2403a02f8127",
        135),
    ("q2", "supplier_parts", None): (
        "7b0e5d25435fe3c0e04e8f33f2ebd8bfb1393dd1bca37ffd5cd1fbf34aed2c83",
        4796),
    ("q2", "supplier_parts", 2): (
        "efd6136e78c21400c0aa33e00e5fa5c010795cae6066be02237e4ba4fd09baff",
        6077),
    ("q2", "supplier_names", None): (
        "0e9ad5bb07899b4a88c9e20e96d28a2f09b4b87fe098841084779cc2d13d687d",
        457),
    ("q2", "supplier_names", 2): (
        "7636da14abb3ba73dd5045c74a6ba428dca672dc8fbebec074031f208d9416a7",
        518),
    ("q2", "order_customers", None): (
        "465768c023e5e8ec5eaaee34726ad1df1fa68cb7dbcf146d87b846ea61d86d7c",
        1117),
    ("q2", "order_customers", 2): (
        "f4df661cfb7bd09a63cf484d8c758904dd2faa14bebe40d48c8428cbf398e28f",
        1268),
    ("q2", "order_keys", None): (
        "975ea548acacec96322a5b81de788366fae7ed5898c6dd536fe5281ad1e378a3",
        3770),
    ("q2", "order_keys", 2): (
        "665869abe2839b07664da7ca1957a7d8d23018cc1d5b033e0c89d139a163a495",
        5355),
}

QUERIES = {"q1": QUERY_1, "q2": QUERY_2}


@pytest.fixture(scope="module")
def config_a_views():
    """Query 1 and Query 2 over a Configuration A database, on a
    connection with no result cache."""
    database = build_database(CONFIG_A)
    silkroute = SilkRoute(Connection(
        database, CONFIG_A.cost_model, CONFIG_A.transfer_model))
    return {name: silkroute.define_view(rxl) for name, rxl in QUERIES.items()}


class TestGolden:
    @pytest.mark.parametrize("key", sorted(GOLDEN, key=repr),
                             ids=lambda key: "-".join(map(str, key)))
    def test_document_matches_the_executor_it_replaced(self, config_a_views,
                                                       key):
        qname, pattern, indent = key
        xml = config_a_views[qname].query(PATTERNS[pattern],
                                          indent=indent).xml
        assert (hashlib.sha256(xml.encode("utf-8")).hexdigest(),
                len(xml)) == GOLDEN[key]


class TestOracle:
    """The composed document's bindings are the etree oracle's over the
    materialized view."""

    @pytest.mark.parametrize("qname", sorted(QUERIES))
    @pytest.mark.parametrize("literal, found", [
        ("7", True), ("07", False), ("7.0", False), ("+7", False),
        ("-7", False),
    ])
    def test_integer_pattern_literals(self, config_a_views, qname, literal,
                                      found):
        """An order key matches where its text is the literal: ``"7"``
        finds the order keyed 7 (``Customer#000023``'s), another
        spelling of 7 finds nothing, as in the document."""
        rows = assert_oracle_agrees(config_a_views[qname], (
            f'where <order><okey>"{literal}"</okey><customer>$c</customer>'
            "</order> construct <b><c>$c</c></b>"))
        assert rows == ([("Customer#000023",)] if found else [])

    @pytest.mark.parametrize("qname", sorted(QUERIES))
    @pytest.mark.parametrize("xmlql", [
        "where <supplier><name>$s</name><part><pname>$p</pname></part>"
        "</supplier> construct <b><s>$s</s><p>$p</p></b>",
        "where <order><okey>$k</okey><customer>$c</customer></order>, "
        "$k < 100 construct <b><k>$k</k><c>$c</c></b>",
        'where <supplier><name>$s</name><nation>"IRAN"</nation>'
        "<region>$r</region></supplier> construct <b><s>$s</s><r>$r</r></b>",
        'where <supplier><name>$s</name></supplier>, $s != "Supplier#000003" '
        "construct <b><s>$s</s></b>",
        "where <part><pname>$p</pname></part> construct <b><p>$p</p></b>",
    ], ids=["supplier-parts", "orders", "literal", "condition", "mid-tree"])
    def test_on_the_workload_views(self, config_a_views, qname, xmlql):
        assert assert_oracle_agrees(config_a_views[qname], xmlql)

    def test_nested_construct_groups_by_skolem_term(self, config_a_views):
        """One ``<s>`` per supplier with its ``<p>`` children: the nested
        elements are view-tree nodes grouped by their Skolem terms (the
        executor this replaced wrote one template per binding)."""
        view = config_a_views["q1"]
        flat = ("where <supplier><name>$s</name><part><pname>$p</pname>"
                "</part></supplier> ")
        xml = view.query(flat + "construct <s ID=S($s)><name>$s</name>"
                                "<p>$p</p></s>").xml
        groups = ElementTree.fromstring(xml)
        names = [group.find("name").text for group in groups]
        assert names == sorted(set(names))
        nested = {(group.find("name").text, p.text)
                  for group in groups for p in group.findall("p")}
        assert nested == set(binding_rows(view.query(
            flat + "construct <b><s>$s</s><p>$p</p></b>").xml))
        assert nested == pattern_bindings(view.materialize("unified").xml,
                                          parse_xmlql(flat + "construct <r>$s</r>"))
        assert len(groups) < len(nested)


#: Orders with their DECIMAL price and DATE, one element each.
ORDERS_VIEW = """
from Orders $o
construct
  <order>
    <okey>$o.orderkey</okey>
    <price>$o.price</price>
    <date>$o.date</date>
    { from Customer $c
      where $o.custkey = $c.custkey
      construct <customer>$c.name</customer> }
  </order>
"""


class TestTypedLiterals:
    """Pattern literals on INTEGER, DECIMAL and DATE columns against the
    etree oracle: a literal matches exactly the elements whose text it
    is, and another spelling of the same value matches nothing."""

    @pytest.fixture(scope="class")
    def orders(self):
        import datetime

        from repro.tpch.generator import TpchGenerator
        from conftest import TINY_SCALE

        database = TpchGenerator(scale=TINY_SCALE, seed=42).generate()
        first, second = (row[0] for row in database.table("Orders").rows[:2])
        # Two orders at 7.00 on one day, so a literal finds more than one.
        database.update(
            "Orders", lambda row: row["orderkey"] in (first, second),
            {"price": 7.0, "date": datetime.date(1998, 1, 5)},
        )
        return SilkRoute(Connection(database, CONFIG_A.cost_model)) \
            .define_view(ORDERS_VIEW)

    @pytest.mark.parametrize("element, literal, found", [
        ("okey", "1", 1), ("okey", "01", 0), ("okey", "1.0", 0),
        ("price", "7.00", 2), ("price", "7", 0), ("price", "7.0", 0),
        ("price", "07.00", 0), ("price", "7.000", 0), ("price", "nan", 0),
        ("date", "1998-01-05", 2), ("date", "1998-1-5", 0),
        ("date", "19980105", 0), ("date", "1998-01-05 ", 0),
    ])
    def test_against_the_oracle(self, orders, element, literal, found):
        rows = assert_oracle_agrees(orders, (
            f'where <order><{element}>"{literal}"</{element}>'
            "<okey>$k</okey></order> construct <b><k>$k</k></b>"))
        assert len(rows) == found

    @pytest.mark.parametrize("element, op, literal", [
        ("date", "=", '"1998-01-05"'), ("date", "<", '"1998-03-01"'),
        ("date", ">=", '"1998-01-05"'),
        ("okey", "=", '"1"'), ("okey", "<", "5"), ("okey", ">=", "10"),
        ("price", "=", '"7.00"'), ("price", "<", "20000"),
        ("price", ">=", "7"),
    ])
    def test_conditions_take_the_column_type(self, orders, element, op,
                                             literal):
        """A ``where`` condition compares its variable's typed value: a
        string literal is the value it spells in the document, a number
        stands for itself."""
        rows = assert_oracle_agrees(orders, (
            f"where <order><okey>$k</okey><{element}>$v</{element}>"
            f"</order>, $v {op} {literal} "
            "construct <b><k>$k</k><v>$v</v></b>"))
        assert rows

    @pytest.mark.parametrize("element, condition", [
        ("date", '= "1998-1-5"'), ("date", "< 5"), ("okey", '= "01"'),
        ("okey", '< "1.5"'), ("price", '= "7"'), ("price", '< "cheap"'),
    ])
    def test_a_condition_its_type_cannot_spell_is_refused(
            self, orders, element, condition):
        with pytest.raises(QueryError, match="no .* value is written"):
            orders.query(
                f"where <order><okey>$k</okey><{element}>$v</{element}>"
                f"</order>, $v {condition} construct <b><k>$k</k></b>")

    def test_every_price_and_date_in_the_document_finds_its_orders(
            self, orders):
        document = ElementTree.fromstring(orders.materialize("unified").xml)
        for element in ("price", "date"):
            texts = sorted({order.find(element).text for order in document})
            for text in texts[:3] + texts[-3:]:
                assert assert_oracle_agrees(orders, (
                    f'where <order><{element}>"{text}"</{element}>'
                    "<okey>$k</okey></order> construct <b><k>$k</k></b>"))
