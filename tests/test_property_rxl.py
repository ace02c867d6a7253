"""Property-based tests over randomly generated RXL views.

A hypothesis strategy builds random (but schema-valid) RXL view queries
over the TPC-H fragment by walking foreign keys in both directions, then
checks the system's central invariant on each: every partition, in either
SQL style, reduced or not, materializes the identical XML document, with
no implicit opens and a depth-bounded tagger stack.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.labeling import label_view_tree
from repro.core.partition import Partition, unified_partition
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.core.viewtree import build_view_tree
from repro.rxl.parser import parse_rxl
from repro.xmlgen.tagger import tag_streams

#: Join moves: (source table, condition template, target table).  ``{s}``
#: is the in-scope variable, ``{t}`` the fresh one.  Both FK directions.
_MOVES = {
    "Supplier": [
        ("Nation", "${s}.nationkey = ${t}.nationkey"),
        ("PartSupp", "${s}.suppkey = ${t}.suppkey"),
        ("LineItem", "${s}.suppkey = ${t}.suppkey"),
    ],
    "Nation": [
        ("Region", "${s}.regionkey = ${t}.regionkey"),
        ("Supplier", "${s}.nationkey = ${t}.nationkey"),
        ("Customer", "${s}.nationkey = ${t}.nationkey"),
    ],
    "Customer": [
        ("Nation", "${s}.nationkey = ${t}.nationkey"),
        ("Orders", "${s}.custkey = ${t}.custkey"),
    ],
    "Orders": [
        ("Customer", "${s}.custkey = ${t}.custkey"),
        ("LineItem", "${s}.orderkey = ${t}.orderkey"),
    ],
    "Part": [
        ("PartSupp", "${s}.partkey = ${t}.partkey"),
        ("LineItem", "${s}.partkey = ${t}.partkey"),
    ],
    "PartSupp": [
        ("Part", "${s}.partkey = ${t}.partkey"),
        ("Supplier", "${s}.suppkey = ${t}.suppkey"),
    ],
    "LineItem": [
        ("Orders", "${s}.orderkey = ${t}.orderkey"),
        ("Part", "${s}.partkey = ${t}.partkey"),
    ],
    "Region": [
        ("Nation", "${s}.regionkey = ${t}.regionkey"),
    ],
}

_TEXT_COLUMN = {
    "Supplier": "name", "Nation": "name", "Region": "name", "Part": "name",
    "Customer": "name", "Orders": "orderkey", "LineItem": "qty",
    "PartSupp": "availqty",
}

_ROOTS = ["Supplier", "Customer", "Orders", "Part", "Nation"]


@st.composite
def rxl_views(draw):
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{counter[0]}"

    def block(table, var, depth):
        tag = f"e{counter[0]}"
        parts = [f"<{tag}>"]
        parts.append(f"<t{counter[0]}>${var}.{_TEXT_COLUMN[table]}</t{counter[0]}>")
        if depth > 0:
            n_children = draw(st.integers(0, 2))
            for _ in range(n_children):
                target, condition = draw(st.sampled_from(_MOVES[table]))
                child_var = fresh()
                cond = condition.replace("{s}", var).replace("{t}", child_var)
                parts.append(
                    "{ from " + target + " $" + child_var
                    + " where " + cond + " construct "
                    + block(target, child_var, depth - 1) + " }"
                )
        parts.append(f"</{tag}>")
        return "".join(parts)

    root_table = draw(st.sampled_from(_ROOTS))
    root_var = fresh()
    body = block(root_table, root_var, draw(st.integers(0, 2)))
    return f"from {root_table} ${root_var} construct {body}"


def _materialize(tree, db, conn, partition, style, reduce):
    generator = SqlGenerator(tree, db.schema, style=style, reduce=reduce)
    specs = generator.streams_for_partition(partition)
    streams = [conn.execute(s.plan, compact_rows=s.compact) for s in specs]
    return tag_streams(tree, specs, streams, root_tag="doc")


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_random_view_plan_invariance(tiny_db, tiny_conn, data):
    rxl = data.draw(rxl_views())
    tree = build_view_tree(parse_rxl(rxl), tiny_db.schema)
    label_view_tree(tree, tiny_db.schema)

    reference, ref_tagger = _materialize(
        tree, tiny_db, tiny_conn, unified_partition(tree),
        PlanStyle.OUTER_JOIN, False,
    )
    assert ref_tagger.implicit_opens == 0
    assert ref_tagger.max_stack_depth <= tree.max_depth()

    edges = [child.index for _, child in tree.edges]
    kept = {e for e in edges if data.draw(st.booleans(), label=f"keep {e}")}
    style = data.draw(
        st.sampled_from([PlanStyle.OUTER_JOIN, PlanStyle.OUTER_UNION])
    )
    reduce = data.draw(st.booleans(), label="reduce")

    xml, tagger = _materialize(
        tree, tiny_db, tiny_conn, Partition(kept), style, reduce
    )
    assert xml == reference
    assert tagger.implicit_opens == 0
    assert tagger.max_stack_depth <= tree.max_depth()


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_random_view_well_formed(tiny_db, data):
    """Structural invariants of generated view trees."""
    rxl = data.draw(rxl_views())
    tree = build_view_tree(parse_rxl(rxl), tiny_db.schema)
    label_view_tree(tree, tiny_db.schema)
    for node in tree.nodes:
        # Skolem-function indices are consistent with tree structure.
        if node.parent is not None:
            assert node.index[:-1] == node.parent.index
            assert node.label in ("1", "?", "+", "*")
            # descendants carry ancestor keys
            assert set(node.parent.key_args) <= set(node.args)
        assert set(node.key_args) <= set(node.args)
    # (p, q) indices are unique across the tree.
    pairs = [(v.level, v.ordinal) for v in tree.stvs]
    assert len(pairs) == len(set(pairs))


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_random_view_sql_roundtrip(tiny_db, tiny_conn, data):
    """Generated SQL for random views means the same rows on SQLite."""
    from repro.relational.backends import SqliteBackend, cross_validate
    from repro.relational.engine import CostModel, QueryEngine

    rxl = data.draw(rxl_views())
    tree = build_view_tree(parse_rxl(rxl), tiny_db.schema)
    label_view_tree(tree, tiny_db.schema)
    generator = SqlGenerator(tree, tiny_db.schema)
    [spec] = generator.streams_for_partition(unified_partition(tree))
    backend = SqliteBackend(tiny_db)
    try:
        cross_validate(QueryEngine(tiny_db, CostModel()), [spec], backend)
    finally:
        backend.close()
