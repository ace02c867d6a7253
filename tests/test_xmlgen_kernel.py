"""The generated integration kernels against the reference pipeline.

The reference is the definition, step by step: :func:`reference_decode`
per stream, :func:`merge_streams`, and :class:`XmlTagger` into an
:class:`XmlWriter`.  The kernels (:mod:`repro.xmlgen.kernel`) must write
the same characters and keep the same counts and top-level marks, for a
plan of one stream and of several — the walk of the tree over the sorted
streams, or the decoders, the heap merge on flat keys and the tag step —
compact and indented, into a ``StringIO`` and into a sink.
"""

import dataclasses
import importlib.util
import io
import pathlib
import re
from itertools import combinations, count, product as itertools_product

import pytest
from conftest import TINY_SCALE
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import QUERY_1, QUERY_2, load_view
from repro.common.ordering import flat_key
from repro.core.options import ExecutionOptions
from repro.common.errors import PlanError, TimeoutExceeded
from repro.core.partition import (
    Partition,
    fully_partitioned,
    unified_partition,
)
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.obs import ObsOptions
from repro.relational.codegen import CODE, Source
from repro.relational.connection import Connection
from repro.relational.engine import CostModel
from repro.relational.schema import TableSchema
from repro.session import Session
from repro.tpch.generator import TpchGenerator
from repro.xmlgen.kernel import StreamShape, _Tagging, _walk_source
from repro.xmlgen.serializer import XmlWriter
from repro.xmlgen.streams import (
    _WALK_DEPTH,
    ComparatorLayout,
    Walk,
    merge_run,
    merge_streams,
    reference_decode,
)
from repro.xmlgen.tagger import Document, XmlTagger, tag_streams


def _catalog():
    path = pathlib.Path(__file__).resolve().parent.parent / "examples" \
        / "custom_catalog.py"
    spec = importlib.util.spec_from_file_location("example_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


VIEWS = {
    "q1": QUERY_1,
    "q2": QUERY_2,
    "region_catalog": _catalog().REGION_CATALOG,
    # Its <party> chain does not nest: matched root first.
    "party_directory": _catalog().PARTY_DIRECTORY,
}

#: supplier -> its parts ('*', its own unit) -> then its name ('1', merged
#: into the supplier's unit): another unit sorts between the supplier's
#: row and its merged <name>, so <name> must wait.
DEFERRED_QUERY = """
from Supplier $s
construct
  <supplier>
    { from PartSupp $ps where $s.suppkey = $ps.suppkey
      construct <part>$ps.partkey</part> }
    <name>$s.name</name>
  </supplier>
"""

#: DEFERRED_QUERY three levels down and three wrappers deep: chains of
#: seven elements, so the kernels' stack locals run past K6.
DEEP_QUERY = """
from Region $r
construct
  <region>
    { from Nation $n where $r.regionkey = $n.regionkey
      construct
        <nation>
          { from Supplier $s where $n.nationkey = $s.nationkey
            construct
              <supplier><a><b><c>
                { from PartSupp $ps where $s.suppkey = $ps.suppkey
                  construct <part>$ps.partkey</part> }
                <name>$s.name</name>
              </c></b></a></supplier> }
        </nation> }
  </region>
"""

#: A DECIMAL and a VARCHAR the crafted rows rewrite.
PRICE_QUERY = """
from Supplier $s
construct
  <supplier>
    { from PartSupp $ps, Part $p
      where $s.suppkey = $ps.suppkey and $ps.partkey = $p.partkey
      construct <part><retail>$p.retail</retail><pname>$p.name</pname></part> }
  </supplier>
"""


#: Parts keyed by their supplier and their price, a DECIMAL, through a
#: Skolem function: the tree is aligned, so the price's value types alone
#: decide whether a fully partitioned plan merges on compact keys.
PRICE_KEYED_QUERY = """
from Supplier $s
construct
  <supplier>
    { from PartSupp $ps, Part $p
      where $s.suppkey = $ps.suppkey and $ps.partkey = $p.partkey
      construct <part ID=Price($s.suppkey, $p.retail)>$p.retail</part> }
  </supplier>
"""


class JoinSink:
    """A sink that is not a ``StringIO``: keeps what it is given."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def value(self):
        return "".join(self.chunks)


def reference(tree, specs, rows, indent, root_tag="view", merged=None):
    """``(xml, (elements, implicit opens, depth, instances), marks)`` of
    the reference pipeline; ``merged``, when given, is its merge."""
    if merged is None:
        merged = reference_merge(tree, specs, rows)
    writer = XmlWriter(indent=indent)
    tagger = XmlTagger(tree, writer, root_tag=root_tag)
    marks = []
    if root_tag is not None:
        writer.start_element(root_tag)
    tagger.tag(merged, marks)
    if root_tag is not None:
        writer.end_element(root_tag)
    return writer.getvalue(), (tagger.elements_written,
                               tagger.implicit_opens,
                               tagger.max_stack_depth, len(merged)), marks


def reference_merge(tree, specs, rows):
    """The reference decoders' instances, merged."""
    layout = ComparatorLayout(tree)
    return list(merge_streams([reference_decode(spec, stream, layout)
                               for spec, stream in zip(specs, rows)]))


def kernels(tree, specs, rows, indent, root_tag="view", walk=False):
    """The same through :class:`Document`: the run as a :class:`Walk`
    where ``walk``, else the tag step over the generated decoders' heap
    merge on flat keys."""
    layout = ComparatorLayout(tree)
    run = [(layout.decoder(spec), stream, spec.label)
           for spec, stream in zip(specs, rows)]
    sink = io.StringIO()
    document = Document(layout, sink, indent, root_tag)
    marks = []
    document.open()
    document.tag(Walk(run) if walk else merge_run(run), marks)
    document.close()
    counts = document.counts
    return sink.getvalue(), (counts.elements_written, counts.implicit_opens,
                             counts.max_stack_depth, counts.instances), marks


def assert_same(tree, specs, rows, walk):
    """Every kernel path equals the reference — the walk where ``walk``
    (the gate's decision), the flat merge always — compact and indented,
    with and without a root tag, into a StringIO and into a sink."""
    for indent in (None, 2):
        expected = reference(tree, specs, rows, indent)
        assert kernels(tree, specs, rows, indent) == expected
        if walk:
            assert kernels(tree, specs, rows, indent, walk=True) == expected
        for how in {False, walk}:
            xml, counts = tag_streams(tree, specs, rows, indent=indent,
                                      walk=how)
            assert xml == expected[0]
            assert (counts.elements_written, counts.implicit_opens,
                    counts.max_stack_depth, counts.instances) == expected[1]
            sink = JoinSink()
            writer, _ = tag_streams(tree, specs, rows, walk=how,
                                    writer=XmlWriter(sink=sink,
                                                     indent=indent))
            assert sink.value() == expected[0] and writer.sink is sink
            bare = reference(tree, specs, rows, indent, root_tag=None)
            assert tag_streams(tree, specs, rows, root_tag=None,
                               indent=indent, walk=how)[0] == bare[0]


def executed(tree, db, conn, partition, style, reduce):
    specs = SqlGenerator(tree, db.schema, style=style, reduce=reduce) \
        .streams_for_partition(partition)
    return specs, [conn.execute(s.plan, compact_rows=s.compact).rows
                   for s in specs]


@pytest.fixture(scope="module")
def trees(tiny_db):
    return {
        (name, simplify): load_view(rxl, tiny_db.schema,
                                    simplify_args=simplify)
        for name, rxl in VIEWS.items() for simplify in (False, True)
    }


class TestDifferential:
    """Hypothesis partitions x style x reduce x simplified arguments, over
    the four views of the repository."""

    @pytest.mark.parametrize("name", sorted(VIEWS))
    @given(data=st.data())
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_kernels_write_the_reference_document(
            self, tiny_db, tiny_conn, trees, name, data):
        tree = trees[name, data.draw(st.booleans(), label="simplify")]
        edges = [child.index for _, child in tree.edges]
        partition = Partition(frozenset(data.draw(
            st.sets(st.sampled_from(edges)), label="cut edges")))
        style = data.draw(st.sampled_from(list(PlanStyle)), label="style")
        reduce = data.draw(st.booleans(), label="reduce")
        specs, rows = executed(tree, tiny_db, tiny_conn, partition, style,
                               reduce)
        layout = ComparatorLayout(tree)
        assert_same(tree, specs, rows, layout.walks(specs, tiny_db))
        # Each stream alone is a one-stream document too.
        for spec, stream in zip(specs, rows):
            assert_same(tree, [spec], [stream],
                        layout.walks([spec], tiny_db))

    @pytest.mark.parametrize("name", sorted(VIEWS))
    def test_unified_shapes(self, tiny_db, tiny_conn, trees, name):
        for simplify in (False, True):
            tree = trees[name, simplify]
            for style in PlanStyle:
                for reduce in (False, True):
                    specs, rows = executed(tree, tiny_db, tiny_conn,
                                           unified_partition(tree), style,
                                           reduce)
                    assert_same(tree, specs, rows, ComparatorLayout(
                        tree).walks(specs, tiny_db))


def _unified(db, conn, rxl, style=PlanStyle.OUTER_JOIN, reduce=True):
    tree = load_view(rxl, db.schema)
    [spec], [rows] = executed(tree, db, conn, unified_partition(tree), style,
                              reduce)
    return tree, spec, list(rows)


def _late(tree, spec):
    """Per path of ``spec``'s stream, the decoder's late members."""
    return {terminal: late for terminal, _, _, late in
            StreamShape(ComparatorLayout(tree).shape, spec).paths}


class TestCrafted:
    """The rules the kernels keep, each on rows built to need it; the
    walk (one component) and the decoders' flat path alike."""

    def test_another_unit_between_a_row_and_its_merged_member(
            self, tiny_db, tiny_conn):
        """<part> rows sort between a supplier's row and its merged
        <name>: the decoder's <name> waits (the keyed deferral); the walk
        holds it with the supplier's rows and writes it after the parts,
        in its place in the tree."""
        tree, spec, rows = _unified(tiny_db, tiny_conn, DEFERRED_QUERY)
        assert _late(tree, spec)[(1,)] == [(1, 2)]
        assert_same(tree, [spec], [rows], True)
        for walk in (False, True):
            xml = kernels(tree, [spec], [rows], None, walk=walk)[0]
            assert "</part><name>" in xml and "</name><part>" not in xml

    def test_a_deep_tree_defers_through_the_single_stream_kernel(
            self, tiny_db, tiny_conn):
        """Seven elements deep, reduced, one stream: the merged <name>
        waits in the decoder's keyed deferral, whose sort keys share the
        generated code with the stack's K1..K7, and is held with its unit
        by the one-component walk, whose loops nest seven deep."""
        for style in PlanStyle:
            tree, spec, rows = _unified(tiny_db, tiny_conn, DEEP_QUERY,
                                        style)
            assert max(node.level for node in tree.nodes) >= 7
            assert any(_late(tree, spec).values())
            assert_same(tree, [spec], [rows], True)
            for walk in (False, True):
                xml = kernels(tree, [spec], [rows], None, walk=walk)[0]
                assert "</part><name>" in xml and "</name><part>" not in xml

    def test_a_repeated_representative_with_another_merged_member(
            self, tiny_db, tiny_conn):
        """An order row again, with another customer name: the decoder's
        merged members wait and the walk holds both rows of the order, so
        the second <customer> comes out right after the first, not after
        the <cnation> of the first row."""
        for style in PlanStyle:
            tree, spec, rows = _unified(tiny_db, tiny_conn, QUERY_1, style)
            assert len(_late(tree, spec)[(1, 4, 2)]) == 3
            names = spec.column_names
            at = next(i for i, row in enumerate(rows)
                      if row[names.index("L3")] == 2
                      and row[names.index("v4_2_name")] is not None)
            name = names.index("v4_2_name")
            again = list(rows[at])
            again[name] += "~"
            crafted = rows[:at + 1] + [tuple(again)] + rows[at + 1:]
            assert_same(tree, [spec], [crafted], True)
            first, second = rows[at][name], again[name]
            for walk in (False, True):
                xml = kernels(tree, [spec], [crafted], None, walk=walk)[0]
                assert f"<customer>{first}</customer><customer>{second}" \
                    in xml

    def test_duplicate_instances_are_written_once_and_counted(
            self, tiny_db, tiny_conn):
        """A stream merged with itself: every instance comes twice in a
        row, the second a duplicate of the element just opened — the tag
        step writes nothing for it but counts it as tagged."""
        tree, spec, rows = _unified(tiny_db, tiny_conn, QUERY_2)
        assert_same(tree, [spec, spec], [rows, rows], False)
        xml, counts, marks = kernels(tree, [spec, spec], [rows, rows], None)
        alone = kernels(tree, [spec], [rows], None)
        assert (xml, counts[:3], marks) == (alone[0], alone[1][:3], alone[2])
        assert counts[3] == 2 * alone[1][3] > 0

    def test_decimals_nulls_and_none_text(self, tiny_db, tiny_conn):
        """A DECIMAL prints as its Python type does (2, 2.00, -0.00); a
        NULL writes no text; the string "None" is text."""
        tree, spec, rows = _unified(tiny_db, tiny_conn, PRICE_QUERY)
        names = spec.column_names
        [retail] = [i for i, n in enumerate(names) if n.endswith("_retail")]
        level = names[retail].split("_")[0]
        [pname] = [i for i, n in enumerate(names)
                   if n.startswith(level) and n.endswith("_name")]
        prices = [2, 2.0, -0.0, None, 1e21, 3.14159, 7]
        texts = ["None", None, "a&b<c>", "", "x > y"]
        crafted = []
        for i, row in enumerate(rows):
            row = list(row)
            if row[retail] is not None:
                row[retail] = prices[i % len(prices)]
                row[pname] = texts[i % len(texts)]
            crafted.append(tuple(row))
        order = [names.index(key) for key in spec.sort_keys]
        crafted.sort(key=lambda row: flat_key([row[i] for i in order]))
        assert_same(tree, [spec], [crafted], True)
        for walk in (False, True):
            xml = kernels(tree, [spec], [crafted], None, walk=walk)[0]
            for text in ("<retail>2</retail>", "<retail>2.00</retail>",
                         "<retail>-0.00</retail>", "<retail></retail>",
                         "<pname>None</pname>", "<pname></pname>",
                         "<pname>a&amp;b&lt;c&gt;</pname>"):
                assert text in xml


class TestCompiledOncePerProcess:
    def test_a_second_session_compiles_nothing(self, tiny_db):
        """All generated code — kernels, pipelines, transfer charges — is
        cached process-wide by shape: a fresh session exporting what
        another session exported hits the cache and compiles nothing."""
        for query in (QUERY_1, QUERY_2):
            for partition in (None, "unified", "fully-partitioned"):
                first = Session(Connection(tiny_db, CostModel()))
                first.materialize(query, partition)
                before = CODE.stats()
                second = Session(Connection(tiny_db, CostModel()))
                assert second.materialize(query, partition).xml \
                    == first.materialize(query, partition).xml
                after = CODE.stats()
                assert after.misses == before.misses
                assert after.stores == before.stores
                assert after.hits > before.hits

    def test_the_cache_is_bounded_and_holds_code(self, tiny_db):
        assert CODE.name == "generated_code"
        assert CODE.max_entries == 1536
        Session(Connection(tiny_db, CostModel())).materialize(QUERY_2)
        for _, kernel in CODE.items():
            assert callable(kernel)
            for cell in kernel.__closure__ or ():
                value = cell.cell_contents
                assert not isinstance(value, (list, Session))

    def test_a_renamed_stream_shares_the_kernel(self, tiny_db, tiny_conn):
        tree, spec, rows = _unified(tiny_db, tiny_conn, QUERY_2)
        renamed = dataclasses.replace(spec, label="renamed")
        layout = ComparatorLayout(tree)
        assert Walk([(layout.decoder(renamed), rows, "renamed")]).kernel(
            None, True) is Walk([(layout.decoder(spec), rows, spec.label)]
                                ).kernel(None, True)


class TestFlatMerge:
    """The gate walks every plan of an aligned view of the corpus;
    otherwise, and wherever it is asked to, the generated
    decoders' heap merge on flat keys is the reference merge, item for
    item, over held rows and cursors."""

    @pytest.mark.parametrize("name", sorted(VIEWS) + ["deferred"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_the_gate_and_the_heap_merge(self, tiny_db, tiny_conn, trees,
                                         name, data):
        simplify = data.draw(st.booleans(), label="simplify")
        tree = trees[name, simplify] if name in VIEWS else load_view(
            DEFERRED_QUERY, tiny_db.schema, simplify_args=simplify)
        edges = [child.index for _, child in tree.edges]
        partition = Partition(frozenset(data.draw(
            st.sets(st.sampled_from(edges)), label="cut edges")))
        style = data.draw(st.sampled_from(list(PlanStyle)), label="style")
        reduce = data.draw(st.booleans(), label="reduce")
        specs, rows = executed(tree, tiny_db, tiny_conn, partition, style,
                               reduce)
        layout = ComparatorLayout(tree)
        assert layout.aligned is (name != "party_directory")
        assert layout.walks(specs, tiny_db) is layout.aligned
        # Every stream, then one of them again: equal keys in two streams.
        again = data.draw(st.sampled_from(range(len(specs))), label="again")
        specs, rows = [*specs, specs[again]], [*rows, rows[again]]
        expected = [(i.key, i.node.index, i.term) for i in merge_streams([
            reference_decode(spec, stream, layout)
            for spec, stream in zip(specs, rows)])]
        nodes = layout.shape.nodes
        for streamed in (False, True):
            run = [(layout.decoder(spec), iter(stream) if streamed
                    else stream, spec.label)
                   for spec, stream in zip(specs, rows)]
            assert [(key, nodes[node].index, term)
                    for key, node, term in merge_run(run)] == expected


def _priced_db(prices):
    """The tiny database with ``Part.retail`` nullable (on the table
    only) and its first parts priced ``prices``."""
    db = TpchGenerator(scale=TINY_SCALE, seed=42).generate()
    part = db.table("Part")
    part.schema = TableSchema(
        "Part", [dataclasses.replace(column, nullable=True)
                 if column.name == "retail" else column
                 for column in part.schema.columns],
        key=part.schema.key, unique_sets=part.schema.unique_sets)
    for row, price in zip(list(part.rows), prices):
        db.update("Part", lambda r, key=row[0]: r["partkey"] == key,
                  {"retail": price})
    return db


#: How a traced run of several streams was integrated.
_MERGES = ("merge.walks", "merge.flat_keys")

#: Parts keyed by their supplier and price but showing their name, with
#: quantities keyed by the part's key: where two parts of a supplier
#: cost the same, their keys are equal and their terms not, and the
#: quantities of both nest in the second.
EQUAL_KEYS_QUERY = """
from Supplier $s
construct
  <supplier>
    { from PartSupp $ps, Part $p
      where $s.suppkey = $ps.suppkey and $ps.partkey = $p.partkey
      construct <part ID=Price($s.suppkey, $p.retail)>$p.name
        <qty ID=Qty($s.suppkey, $p.retail, $ps.availqty)>$ps.availqty</qty>
      </part> }
  </supplier>
"""

#: Suppliers whose parts sit under more wrapper elements than a walk
#: nests loops.
DEEPER_QUERY = """
from Supplier $s
construct
  <supplier>%s
    { from PartSupp $ps where $s.suppkey = $ps.suppkey
      construct <part>$ps.partkey</part> }
  %s</supplier>
""" % ("".join(f"<w{i}>" for i in range(_WALK_DEPTH)),
       "".join(f"</w{i}>" for i in reversed(range(_WALK_DEPTH))))


#: A supplier's <nation> (its own key) with its <region>: reduced, the
#: nation is a merged member of the supplier's unit, and has a child.
NATION_REGION_QUERY = """
from Supplier $s
construct
  <supplier>
    { from Nation $n where $s.nationkey = $n.nationkey
      construct <nation>$n.name
        { from Region $r where $n.regionkey = $r.regionkey
          construct <region>$r.name</region> }
      </nation> }
  </supplier>
"""


def _region_alone(tree):
    """<supplier> and its <nation> in one stream, <region> in another."""
    return Partition(frozenset([(1, 1)]))


def _star_cut(tree):
    """``tree`` cut at its ``*`` edges: streams of several nodes."""
    return Partition(frozenset(child.index for _, child in tree.edges
                               if child.label == "*"))


def _parts_with_quantities(tree):
    """<part> and its <qty> in one stream, <supplier> in another."""
    return Partition(frozenset([(1, 1, 1)]))


class TestKeyDecision:
    """A run of several streams is walked, whatever nodes its streams
    carry, unless the tree is not aligned or deeper than a walk nests, a
    key column holds a NULL or two types, a stream carries a node that
    can repeat its key with another term together with its child, or a
    merged member with a key of its own has a child: those merge on flat
    keys.  Each run counts which it used, and, held or
    streamed, its document is the reference pipeline's over the tuple
    engine's rows."""

    @pytest.mark.parametrize("rxl, prices, partition, used", [
        (QUERY_1, (), "fully-partitioned", "walks"),
        (QUERY_2, (), "fully-partitioned", "walks"),
        (PRICE_KEYED_QUERY, (), "fully-partitioned", "walks"),
        (PRICE_KEYED_QUERY, (None,), "fully-partitioned", "flat_keys"),
        (PRICE_KEYED_QUERY, (2, 2.5), "fully-partitioned", "flat_keys"),
        (VIEWS["party_directory"], (), "fully-partitioned", "flat_keys"),
        (QUERY_1, (), _star_cut, "walks"),
        (QUERY_2, (), _star_cut, "walks"),
        (DEEPER_QUERY, (), "fully-partitioned", "flat_keys"),
        (EQUAL_KEYS_QUERY, (5.0,) * 8 + (7.0,) * 8, _parts_with_quantities,
         "flat_keys"),
        (EQUAL_KEYS_QUERY, (5.0,) * 8 + (7.0,) * 8, "fully-partitioned",
         "walks"),
        (NATION_REGION_QUERY, (), _region_alone, "flat_keys"),
    ], ids=["q1", "q2", "price", "a NULL key", "a DECIMAL key of two types",
            "not aligned", "q1 cut at its * edges", "q2 cut at its * edges",
            "deeper than a walk", "a repeated key with its child",
            "repeated keys alone", "a merged member with a key and a child"])
    def test_the_keys_a_run_merges_on(self, rxl, prices, partition, used):
        db = _priced_db(prices)
        session = Session(Connection(db, CostModel()))
        view = session.view(rxl)
        if callable(partition):
            partition = partition(view.tree)
        specs = view.specs(view.fully_partitioned()
                           if partition == "fully-partitioned" else partition)
        assert len(specs) > 1
        engine = Connection(db, CostModel(), engine="tuple")
        rows = [engine.execute(spec.plan, compact_rows=spec.compact).rows
                for spec in specs]
        expected = reference(view.tree, specs, rows, None)[0]
        for streamed in (False, True):
            obs = ObsOptions()
            options = ExecutionOptions(obs=obs)
            if streamed:
                sink = io.StringIO()
                session.materialize_to(rxl, sink, partition, options=options)
                xml = sink.getvalue()
            else:
                xml = session.materialize(rxl, partition,
                                          options=options).xml
            counters = obs.metrics.snapshot()["counters"]
            assert {name: count for name, count in counters.items()
                    if name in _MERGES} == {f"merge.{used}": 1}
            assert xml == expected

    def test_one_stream_counts_neither(self, tiny_db):
        obs = ObsOptions()
        Session(Connection(tiny_db, CostModel())).materialize(
            QUERY_1, "unified", options=ExecutionOptions(obs=obs))
        counters = obs.metrics.snapshot()["counters"]
        assert not set(_MERGES) & set(counters)


#: Every aligned view of the corpus.
ALIGNED = {
    "q1": QUERY_1,
    "q2": QUERY_2,
    "region_catalog": VIEWS["region_catalog"],
    "deferred": DEFERRED_QUERY,
    "deep": DEEP_QUERY,
    "price": PRICE_QUERY,
    "price_keyed": PRICE_KEYED_QUERY,
}


#: <part> under a wrapper merged, with <nation>, into <supplier>'s unit:
#: a removed nation leaves parts whose <supplier> and <a> are missing.
WRAPPED_QUERY = """
from Supplier $s
construct
  <supplier>
    { from Nation $n where $s.nationkey = $n.nationkey
      construct <nation>$n.name</nation> }
    <a>
      { from PartSupp $ps where $s.suppkey = $ps.suppkey
        construct <part>$ps.partkey</part> }
    </a>
  </supplier>
"""


def _without_a_nation():
    """The tiny database less the nation of its first supplier."""
    db = TpchGenerator(scale=TINY_SCALE, seed=42).generate()
    nation = db.table("Supplier").rows[0][3]
    db.delete("Nation", lambda row: row["nationkey"] == nation)
    return db


def _walk_text(tree, specs):
    """The generated source of the walk of ``specs``' streams."""
    layout = ComparatorLayout(tree)
    return "\n".join(_walk_source(
        [StreamShape(layout.shape, spec) for spec in specs],
        _Tagging(layout.shape, Source(), None, True)).lines)


def _two_streams(tree):
    """``tree`` cut at its first ``*`` edge only: two streams, each of
    several nodes."""
    first = next(child.index for _, child in tree.edges
                 if child.label == "*")
    return Partition(frozenset(child.index for _, child in tree.edges
                               if child.index != first))


class TestWalk:
    """Every run of several streams of an aligned view is walked, not
    merged, whatever component of the tree each stream carries: the
    reference pipeline's characters, counts and top-level marks, held or
    streamed, with or without a root tag, compact or indented, into a
    StringIO or a sink."""

    @pytest.mark.parametrize("name", sorted(ALIGNED))
    def test_every_aligned_view_walks_to_the_reference_document(
            self, tiny_db, tiny_conn, name):
        for simplify in (False, True):
            tree = load_view(ALIGNED[name], tiny_db.schema,
                             simplify_args=simplify)
            for style in PlanStyle:
                for reduce in (False, True):
                    specs, rows = executed(tree, tiny_db, tiny_conn,
                                           fully_partitioned(tree), style,
                                           reduce)
                    self._assert_walks(tree, specs, rows, tiny_db)

    @pytest.mark.parametrize("name", sorted(ALIGNED))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_drawn_partitions_walk_to_the_reference_document(
            self, tiny_db, tiny_conn, name, data):
        tree = load_view(ALIGNED[name], tiny_db.schema,
                         simplify_args=data.draw(st.booleans(),
                                                 label="simplify"))
        edges = [child.index for _, child in tree.edges]
        kept = data.draw(st.sets(st.sampled_from(edges),
                                 max_size=len(edges) - 1), label="kept edges")
        specs, rows = executed(
            tree, tiny_db, tiny_conn, Partition(frozenset(kept)),
            data.draw(st.sampled_from(list(PlanStyle)), label="style"),
            data.draw(st.booleans(), label="reduce"))
        self._assert_walks(tree, specs, rows, tiny_db)

    @pytest.mark.parametrize("rxl", [QUERY_1, QUERY_2], ids=["q1", "q2"])
    def test_every_outer_join_partition_walks(self, tiny_db, tiny_conn, rxl):
        """All 512 partitions of the query's nine edges, reduced: every
        plan of several streams is walked to the reference document."""
        tree = load_view(rxl, tiny_db.schema)
        edges = [child.index for _, child in tree.edges]
        walked = 0
        for size in range(len(edges)):
            for kept in combinations(edges, size):
                specs, rows = executed(tree, tiny_db, tiny_conn,
                                       Partition(frozenset(kept)),
                                       PlanStyle.OUTER_JOIN, True)
                self._assert_walks(tree, specs, rows, tiny_db)
                walked += 1
        assert walked == 511

    def test_equal_keys_nest_as_the_reference(self):
        db = _priced_db([5.0] * 8 + [7.0] * 8)
        conn = Connection(db, CostModel())
        tree = load_view(EQUAL_KEYS_QUERY, db.schema)
        specs, rows = executed(tree, db, conn, fully_partitioned(tree),
                               PlanStyle.OUTER_JOIN, False)
        [part] = [i for i, spec in enumerate(specs) if spec.label == "S1.1"]
        names = specs[part].column_names
        key = [names.index(n) for n in ("v1_1_suppkey", "v2_1_retail")]
        stream = rows[part]
        assert any(a != b and [a[i] for i in key] == [b[i] for i in key]
                   for a, b in zip(stream, stream[1:]))
        xml = self._assert_walks(tree, specs, rows, db)
        # A <part> whose key repeats is closed before its quantities.
        assert "</part><part>" in xml and "<qty>" in xml

    def test_a_row_no_parent_claims_raises(self, tiny_db, tiny_conn):
        tree = load_view(QUERY_1, tiny_db.schema)
        specs, rows = executed(tree, tiny_db, tiny_conn,
                               fully_partitioned(tree),
                               PlanStyle.OUTER_JOIN, False)
        rows = [list(stream) for stream in rows]
        # Supplier 3 is gone from its stream, not from its children's.
        [suppliers] = [i for i, spec in enumerate(specs)
                       if spec.label == "S1"]
        rows[suppliers] = [row for row in rows[suppliers] if row[1] != 3]
        for indent in (None, 2):
            with pytest.raises(PlanError, match="stream S1.1 "):
                kernels(tree, specs, rows, indent, walk=True)
        # A child row before every supplier: left behind, then named.
        [names] = [i for i, spec in enumerate(specs) if spec.label == "S1.1"]
        rows = [list(stream) for stream in executed(
            tree, tiny_db, tiny_conn, fully_partitioned(tree),
            PlanStyle.OUTER_JOIN, False)[1]]
        rows[names].insert(0, (1, 1, 0, "Supplier#000000"))
        with pytest.raises(PlanError, match=re.escape(
                "row (1, 1, 0, 'Supplier#000000') of stream S1.1 ")):
            kernels(tree, specs, rows, None, walk=True)
        # A row whose ``L`` tags name no unit under its parent.
        specs, rows = executed(tree, tiny_db, tiny_conn,
                               unified_partition(tree), PlanStyle.OUTER_JOIN,
                               True)
        [spec], [stream] = specs, rows
        level = spec.column_names.index("L2")
        at = next(i for i, row in enumerate(stream) if row[level] == 4)
        bad = stream[at][:level] + (9,) + stream[at][level + 1:]
        crafted = stream[:at] + [bad] + stream[at + 1:]
        for indent in (None, 2):
            with pytest.raises(PlanError, match=re.escape(
                    f"row {bad!r} of stream S1' is in no unit")):
                kernels(tree, specs, [crafted], indent, walk=True)

    def test_rows_of_a_missing_parent_open_it_implicitly(self):
        """A removed nation drops its suppliers from a stream that merges
        <nation> into <supplier>, not their parts from the part stream,
        whose query does not join Nation: those rows are walked where the
        merge of the items puts them, the supplier opened implicitly, as
        the reference writes them, and as a session serves them."""
        db = _without_a_nation()
        for style in PlanStyle:
            tree, specs, rows = self._assert_missing_parent(db, QUERY_1,
                                                            style)
            obs = ObsOptions()
            served = Session(Connection(db, CostModel())).materialize(
                QUERY_1, _two_streams(tree),
                options=ExecutionOptions(style=style, reduce=True, obs=obs))
            assert served.xml == reference(tree, specs, rows, None)[0]
            assert obs.metrics.snapshot()["counters"]["merge.walks"] == 1

    def test_a_wrapper_merged_into_a_missing_parent_opens_with_it(self):
        """<part>'s parent is <a>, merged into the missing <supplier>'s
        unit: <part> opens both implicitly."""
        db = _without_a_nation()
        for style in PlanStyle:
            self._assert_missing_parent(db, WRAPPED_QUERY, style)

    def _assert_missing_parent(self, db, rxl, style):
        """The plan of two streams cut at <part>, whose <supplier> unit
        merges <nation>, matches the stack at <part> alone — the child, in
        the other stream, of <supplier> or of a wrapper merged into its
        unit — and writes the reference's bytes, counts (implicit opens
        among them) and marks, held and streamed.  Returns ``(tree,
        specs, rows)``."""
        tree = load_view(rxl, db.schema)
        specs, rows = executed(tree, db, Connection(db, CostModel()),
                               _two_streams(tree), style, True)
        text = _walk_text(tree, specs)
        [matched] = re.findall(r"m = (_A\d+)\[last\]", text)
        part = ComparatorLayout(tree).shape.ids[next(
            child for _, child in tree.edges if child.tag == "part")]
        step = text[text.index(f"m = {matched}"):]
        assert re.search(r"\n *last = (\d+)\n", step).group(1) == str(part)
        for indent in (None, 2):
            expected = reference(tree, specs, rows, indent)
            assert expected[1][1] > 0       # implicit opens
            for streamed in (False, True):
                run = [iter(stream) if streamed else stream
                       for stream in rows]
                assert kernels(tree, specs, run, indent, walk=True) \
                    == expected
        return tree, specs, rows

    def test_a_session_walks_held_streamed_and_spliced(self, tiny_db):
        """``materialize`` (through the splice, before and after writes)
        and ``materialize_to`` walk every fully partitioned plan and every
        plan of two streams cut at the first ``*`` edge, the splice's
        segments included, to the reference document, and a spliced
        re-materialization compiles no walk of its own."""
        db = TpchGenerator(scale=TINY_SCALE, seed=42).generate()
        reference_engine = Connection(db, CostModel(), engine="tuple")
        seeds = count(1)
        for rxl, plan, style, reduce in itertools_product(
                (QUERY_1, QUERY_2), ("fully-partitioned", _two_streams),
                PlanStyle, (False, True)):
            # Its own caches: every plan writes the same document.
            session = Session(Connection(db, CostModel()))
            view = session.view(rxl)
            partition = plan if isinstance(plan, str) else plan(view.tree)
            options = ExecutionOptions(style=style, reduce=reduce)
            specs = view.specs(view.fully_partitioned()
                               if isinstance(plan, str) else partition,
                               options)
            assert len(specs) > 1
            for write in range(3):
                if write:
                    # An inserted supplier has no parts: its
                    # segment walks the part streams as empty.
                    session.mutate(
                        "Supplier",
                        op="insert" if write == 2 else "update",
                        rows=1 if write == 2 else 2,
                        seed=next(seeds))
                rows = [reference_engine.execute(
                    spec.plan, compact_rows=spec.compact).rows
                    for spec in specs]
                for indent in (None, 2):
                    expected = reference(view.tree, specs, rows,
                                         indent)[0]
                    before = CODE.stats().stores
                    obs = ObsOptions()
                    traced = dataclasses.replace(options, obs=obs)
                    held = session.materialize(
                        rxl, partition, indent=indent,
                        options=traced).xml
                    counters = obs.metrics.snapshot()["counters"]
                    sink = JoinSink()
                    session.materialize_to(
                        rxl, sink, partition,
                        indent=indent, options=options)
                    assert held == sink.value() == expected
                    assert counters.get("merge.walks", 0) >= 1
                    assert "merge.flat_keys" not in counters
                    if write:
                        assert counters["splice.retagged"] >= 1
                        assert CODE.stats().stores == before

    def test_a_streamed_timeout_reports_as_the_heap_merge(self, tiny_db,
                                                          monkeypatch):
        """The walk primes the cursors in spec order, as the heap merge
        primes its decoders: a streamed plan — fully partitioned or of
        two streams — that runs out of budget reports the same stream and
        the same rows read per stream."""
        session = Session(Connection(tiny_db, CostModel()))
        for partition in ("fully-partitioned",
                          _two_streams(session.view(QUERY_1).tree)):
            clean = session.materialize(QUERY_1, partition).report
            times = sorted(stream.server_ms for stream in clean.streams)
            budget = (times[-1] + times[-2]) / 2

            def timed_out(used):
                obs = ObsOptions()
                with pytest.raises(TimeoutExceeded) as caught:
                    session.materialize_to(
                        QUERY_1, io.StringIO(), partition, budget_ms=budget,
                        options=ExecutionOptions(obs=obs))
                counters = obs.metrics.snapshot()["counters"]
                assert {name for name in counters if name in _MERGES} \
                    == {used}
                report = caught.value.report
                return report.timed_out_label, [
                    (stream.label, stream.rows) for stream in report.streams]

            walked = timed_out("merge.walks")
            with monkeypatch.context() as patched:
                patched.setattr(ComparatorLayout, "walks",
                                lambda self, specs, database: False)
                merged = timed_out("merge.flat_keys")
            assert walked == merged
            label, read = walked
            assert label is not None
            assert any(rows for _, rows in read)

    @pytest.mark.parametrize("rxl", [QUERY_1, QUERY_2], ids=["q1", "q2"])
    def test_the_loop_nest_fixes_every_depth(self, tiny_db, rxl):
        """Where no parent can be missing — one stream, or no merged
        member — every instance step is written at the depth its loop
        fixes: no ``_A`` table read, no stack key compared."""
        tree = load_view(rxl, tiny_db.schema)
        for partition, reduce in ((unified_partition(tree), True),
                                  (fully_partitioned(tree), True),
                                  (_two_streams(tree), False)):
            specs = SqlGenerator(tree, tiny_db.schema, reduce=reduce) \
                .streams_for_partition(partition)
            assert ComparatorLayout(tree).walks(specs, tiny_db)
            text = _walk_text(tree, specs)
            assert "_A" not in text
            assert not re.search(r"\bK\d+ [=!]=", text)

    def _assert_walks(self, tree, specs, rows, db):
        """The walk equals the reference; ``tag_streams`` walks the run,
        held and streamed, and counts it.  Returns the compact document."""
        walk = ComparatorLayout(tree).walks(specs, db)
        assert walk
        merged = reference_merge(tree, specs, rows)
        for indent in (2, None):
            expected = reference(tree, specs, rows, indent, merged=merged)
            assert kernels(tree, specs, rows, indent, walk=True) == expected
            bare = reference(tree, specs, rows, indent, root_tag=None,
                             merged=merged)
            assert kernels(tree, specs, rows, indent, None, walk=True) == bare
            for streamed in (False, True):
                def streams():
                    return [iter(stream) if streamed else stream
                            for stream in rows]
                obs = ObsOptions()
                xml, counts = tag_streams(tree, specs, streams(),
                                          indent=indent, walk=walk,
                                          obs=obs)
                assert (xml, (counts.elements_written, counts.implicit_opens,
                        counts.max_stack_depth, counts.instances)) \
                    == expected[:2]
                counters = obs.metrics.snapshot()["counters"]
                assert {name: count for name, count in counters.items()
                        if name in _MERGES} == {"merge.walks": 1}
                sink = JoinSink()
                tag_streams(tree, specs, streams(), walk=walk,
                            writer=XmlWriter(sink=sink, indent=indent))
                assert sink.value() == expected[0]
        return expected[0]
