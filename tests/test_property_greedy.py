"""Property-based tests of the greedy planner over random views.

For any (schema-valid) random RXL view:

* genPlan terminates and returns disjoint mandatory/optional edge sets
  drawn from the view tree's edges,
* every partition in the family is executable and produces the reference
  document,
* the recommended plan never keeps a combination of edges whose estimated
  relative cost exceeded t2 — in particular it avoids the nested
  outer-join blowups the cost oracle prices in.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.greedy import GreedyPlanner
from repro.core.labeling import label_view_tree
from repro.core.partition import unified_partition
from repro.core.silkroute import SilkRoute
from repro.core.sqlgen import SqlGenerator
from repro.core.viewtree import build_view_tree
from repro.relational.estimator import CostEstimator
from repro.relational.engine import CostModel
from repro.rxl.parser import parse_rxl
from repro.xmlgen.tagger import tag_streams

from tests.test_property_rxl import rxl_views
from tests.test_xmlql import assert_oracle_agrees


def _materialize(tree, db, conn, partition, reduce):
    generator = SqlGenerator(tree, db.schema, reduce=reduce)
    specs = generator.streams_for_partition(partition)
    streams = [conn.execute(s.plan) for s in specs]
    xml, _ = tag_streams(tree, specs, streams, root_tag="doc")
    return xml


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_greedy_family_is_valid_and_correct(tiny_db, tiny_conn, data):
    rxl = data.draw(rxl_views())
    tree = build_view_tree(parse_rxl(rxl), tiny_db.schema)
    label_view_tree(tree, tiny_db.schema)
    estimator = CostEstimator(tiny_db, CostModel())

    planner = GreedyPlanner(tree, tiny_db.schema, estimator, reduce=True)
    plan = planner.plan()

    edge_ids = {child.index for _, child in tree.edges}
    assert plan.mandatory <= edge_ids
    assert plan.optional <= edge_ids
    assert not (plan.mandatory & plan.optional)
    assert plan.oracle_requests <= len(edge_ids) ** 2 + len(tree.nodes)

    reference = _materialize(
        tree, tiny_db, tiny_conn, unified_partition(tree), False
    )
    # Check a couple of family members (the family can be large).
    family = plan.partitions()
    picks = {0, len(family) - 1}
    if len(family) > 2:
        picks.add(data.draw(st.integers(0, len(family) - 1)))
    for i in sorted(picks):
        assert _materialize(tree, tiny_db, tiny_conn, family[i], True) == (
            reference
        )


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_xmlql_on_random_views(tiny_db, tiny_conn, data):
    """Any bound variable of a random view is queryable virtually, and the
    composed view's bindings are the etree oracle's over the materialized
    document."""
    rxl = data.draw(rxl_views())
    view = SilkRoute(tiny_conn).define_view(rxl)

    # Pick a leaf text node and query for its values, with its
    # grandparent's text when drawn (a pattern that joins two scopes).
    text_nodes = [
        n for n in view.tree.nodes
        if n.contents and not n.children and n.parent is not None
    ]
    node = data.draw(st.sampled_from(text_nodes))
    # Tags are unique in generated views, so the pattern is unambiguous.
    pattern = f"<{node.tag}>$x</{node.tag}>"
    construct = "<b><x>$x</x></b>"
    parent, up = node.parent, node.parent.parent
    texts = [] if up is None else [c for c in up.children if c in text_nodes]
    if texts and data.draw(st.booleans()):
        pattern = (f"<{up.tag}><{texts[0].tag}>$y</{texts[0].tag}>"
                   f"<{parent.tag}>{pattern}</{parent.tag}></{up.tag}>")
        construct = "<b><y>$y</y><x>$x</x></b>"
    assert_oracle_agrees(view, f"where {pattern} construct {construct}")
