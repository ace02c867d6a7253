"""The generated integration kernels against the reference pipeline.

The reference is the definition, step by step: :func:`reference_decode`
per stream, :func:`merge_streams`, and :class:`XmlTagger` into an
:class:`XmlWriter`.  The kernels (:mod:`repro.xmlgen.kernel`) must write
the same characters and keep the same counts and top-level marks, for a
plan of one stream (rows to markup in one loop) and of several (decoders,
one merge, the tag step), compact and indented, into a ``StringIO`` and
into a sink.
"""

import dataclasses
import heapq
import importlib.util
import io
import pathlib
import re
from itertools import chain, count
from operator import itemgetter

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
from repro.relational.codegen import CODE
from repro.relational.connection import Connection
from repro.relational.engine import CostModel
from repro.relational.schema import TableSchema
from repro.session import Session
from repro.tpch.generator import TpchGenerator
from repro.xmlgen.kernel import StreamShape
from repro.xmlgen.serializer import XmlWriter
from repro.xmlgen.streams import (
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


def reference(tree, specs, rows, indent, root_tag="view"):
    """``(xml, (elements, implicit opens, depth, instances), marks)`` of
    the reference pipeline."""
    layout = ComparatorLayout(tree)
    merged = list(merge_streams([
        reference_decode(spec, stream, layout)
        for spec, stream in zip(specs, rows)]))
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


def kernels(tree, specs, rows, indent, root_tag="view", staged=False,
            walk=False):
    """The same through :class:`Document`: a lone stream by its
    single-stream kernel (unless ``staged``), a run as a :class:`Walk`
    where ``walk``, else the tag step over the merged generated
    decoders."""
    layout = ComparatorLayout(tree)
    run = [(layout.decoder(spec), stream, spec.label)
           for spec, stream in zip(specs, rows)]
    sink = io.StringIO()
    document = Document(layout, sink, indent, root_tag)
    marks = []
    document.open()
    if walk:
        assert Walk.takes(run)
        document.tag(Walk(run), marks)
    elif len(run) == 1 and not staged:
        document.tag(run[0], marks)
    else:
        document.tag(merge_run(run), marks)
    document.close()
    counts = document.counts
    return sink.getvalue(), (counts.elements_written, counts.implicit_opens,
                             counts.max_stack_depth, counts.instances), marks


def assert_same(tree, specs, rows):
    """Every kernel path equals the reference, compact and indented, with
    and without a root tag, into a StringIO and into a sink."""
    for indent in (None, 2):
        expected = reference(tree, specs, rows, indent)
        assert kernels(tree, specs, rows, indent) == expected
        assert kernels(tree, specs, rows, indent, staged=True) == expected
        xml, counts = tag_streams(tree, specs, rows, indent=indent)
        assert xml == expected[0]
        assert (counts.elements_written, counts.implicit_opens,
                counts.max_stack_depth, counts.instances) == expected[1]
        sink = JoinSink()
        writer, _ = tag_streams(tree, specs, rows,
                                writer=XmlWriter(sink=sink, indent=indent))
        assert sink.value() == expected[0] and writer.sink is sink
        bare = reference(tree, specs, rows, indent, root_tag=None)
        assert tag_streams(tree, specs, rows, root_tag=None,
                           indent=indent)[0] == bare[0]


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
        assert_same(tree, specs, rows)
        # Each stream alone is a one-stream document too.
        for spec, stream in zip(specs, rows):
            assert_same(tree, [spec], [stream])

    @pytest.mark.parametrize("name", sorted(VIEWS))
    def test_unified_shapes(self, tiny_db, tiny_conn, trees, name):
        for simplify in (False, True):
            tree = trees[name, simplify]
            for style in PlanStyle:
                for reduce in (False, True):
                    specs, rows = executed(tree, tiny_db, tiny_conn,
                                           unified_partition(tree), style,
                                           reduce)
                    assert_same(tree, specs, rows)


def _unified(db, conn, rxl, style=PlanStyle.OUTER_JOIN, reduce=True):
    tree = load_view(rxl, db.schema)
    [spec], [rows] = executed(tree, db, conn, unified_partition(tree), style,
                              reduce)
    return tree, spec, list(rows)


def _paths(tree, spec):
    return {terminal: (late, look) for terminal, _, _, late, look in
            StreamShape(ComparatorLayout(tree).shape, spec).paths}


class TestCrafted:
    """The rules the kernel keeps, each on rows built to need it."""

    def test_another_unit_between_a_row_and_its_merged_member(
            self, tiny_db, tiny_conn):
        """<part> rows sort between a supplier's row and its merged
        <name>: the order table cannot write <name> with its row, so it
        waits (the keyed deferral)."""
        tree, spec, rows = _unified(tiny_db, tiny_conn, DEFERRED_QUERY)
        late, look = _paths(tree, spec)[(1,)]
        assert [index for index in late] == [(1, 2)] and look is None
        assert_same(tree, [spec], [rows])
        xml = kernels(tree, [spec], [rows], None)[0]
        assert "</part><name>" in xml and "</name><part>" not in xml

    def test_a_deep_tree_defers_through_the_single_stream_kernel(
            self, tiny_db, tiny_conn):
        """Seven elements deep, reduced, one stream: the merged <name>
        waits in the single-stream kernel's keyed deferral, whose sort
        keys share the generated code with the stack's K1..K7."""
        for style in PlanStyle:
            tree, spec, rows = _unified(tiny_db, tiny_conn, DEEP_QUERY,
                                        style)
            assert max(node.level for node in tree.nodes) >= 7
            late = [late for late, look in _paths(tree, spec).values()
                    if late and look is None]
            assert late
            assert_same(tree, [spec], [rows])
            xml = kernels(tree, [spec], [rows], None)[0]
            assert "</part><name>" in xml and "</name><part>" not in xml

    def test_a_repeated_representative_with_another_merged_member(
            self, tiny_db, tiny_conn):
        """An order row again, with another customer name: the look-ahead
        sees the order's key repeat, so the row's merged members wait and
        the second <customer> comes out right after the first, not after
        the <cnation> written with the first row."""
        for style in PlanStyle:
            tree, spec, rows = _unified(tiny_db, tiny_conn, QUERY_1, style)
            late, look = _paths(tree, spec)[(1, 4, 2)]
            assert len(late) == 3 and look
            names = spec.column_names
            at = next(i for i, row in enumerate(rows)
                      if row[names.index("L3")] == 2
                      and row[names.index("v4_2_name")] is not None)
            name = names.index("v4_2_name")
            again = list(rows[at])
            again[name] += "~"
            crafted = rows[:at + 1] + [tuple(again)] + rows[at + 1:]
            assert_same(tree, [spec], [crafted])
            xml = kernels(tree, [spec], [crafted], None)[0]
            first, second = rows[at][name], again[name]
            assert f"<customer>{first}</customer><customer>{second}" in xml

    def test_duplicate_instances_are_written_once_and_counted(
            self, tiny_db, tiny_conn):
        """A stream merged with itself: every instance comes twice in a
        row, the second a duplicate of the element just opened — the tag
        step writes nothing for it but counts it as tagged."""
        tree, spec, rows = _unified(tiny_db, tiny_conn, QUERY_2)
        assert_same(tree, [spec, spec], [rows, rows])
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
        assert_same(tree, [spec], [crafted])
        xml = kernels(tree, [spec], [crafted], None)[0]
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
        assert layout.decoder(renamed).writer(None, True) \
            is layout.decoder(spec).writer(None, True)


class _Listed:
    """A decoder whose items are given: the merges' inputs, as objects."""

    ordered = True

    def __init__(self, items):
        self.listed = items

    def items(self, rows, label, compact):
        return iter(self.listed)


def _sign(a, b):
    return (a > b) - (a < b)


class TestCompactKeys:
    """Where the layout allows compact keys, they order every pair of
    items as the flat keys do, and a run of held rows sorted once is the
    heap merge of its streams, item for item."""

    @pytest.mark.parametrize("name", sorted(VIEWS) + ["deferred"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_compact_keys_order_as_flat_keys(self, tiny_db, tiny_conn, trees,
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
        assert layout.compact_keys(specs, tiny_db) is (
            None if len(specs) == 1 else layout.aligned)
        forms = [False, True] if layout.aligned else [False]
        items = {compact: [list(layout.decoder(spec).items(
            stream, spec.label, compact)) for spec, stream in zip(specs, rows)]
            for compact in forms}
        if layout.aligned:
            assert [[item[1:] for item in stream] for stream in items[True]] \
                == [[item[1:] for item in stream] for stream in items[False]]
            # One stream after another (each boundary a step back) and in
            # document order (equal keys of two streams side by side).
            pairs = list(zip(chain(*items[False]), chain(*items[True])))
            for order in (pairs, sorted(pairs, key=lambda p: p[0][0])):
                for (flat, short), (flat2, short2) in zip(order, order[1:]):
                    assert _sign(flat[0], flat2[0]) \
                        == _sign(short[0], short2[0])
        # Every stream, then one of them again: equal keys in two streams.
        again = data.draw(st.sampled_from(range(len(specs))), label="again")
        for compact in forms:
            sources = items[compact] + [
                [(key, node, term) for key, node, term in
                 items[compact][again]]]
            streams = [*rows, rows[again]]
            run = [(layout.decoder(spec), stream, spec.label)
                   for spec, stream in zip([*specs, specs[again]], streams)]
            held = merge_run(run, compact)
            assert list(held) == list(merge_run(
                [(decoder, iter(stream), label)
                 for decoder, stream, label in run], compact))
            if not layout.aligned:
                # A <party> key leaves out the <directory> the rows sort
                # by first: its items do not ascend, so they are not
                # sorted, but heap-merged.
                assert type(held) is not list
                continue
            assert type(held) is list
            listed = [(_Listed(source), stream, "s")
                      for source, stream in zip(sources, streams)]
            assert list(map(id, merge_run(listed, compact))) == list(map(
                id, heapq.merge(*sources, key=itemgetter(0))))


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
_MERGES = ("merge.walks", "merge.compact_keys", "merge.flat_keys")


def _star_cut(tree):
    """``tree`` cut at its ``*`` edges: streams of several nodes."""
    return Partition(frozenset(child.index for _, child in tree.edges
                               if child.label == "*"))


class TestKeyDecision:
    """A run of several streams is walked where each carries one node
    and compact keys order as the flat ones; streams of several nodes
    merge on compact keys there; otherwise on flat keys.  Each run counts
    which it used, and, held or streamed, its document is the reference
    pipeline's over the tuple engine's rows."""

    @pytest.mark.parametrize("rxl, prices, partition, used", [
        (QUERY_1, (), "fully-partitioned", "walks"),
        (QUERY_2, (), "fully-partitioned", "walks"),
        (PRICE_KEYED_QUERY, (), "fully-partitioned", "walks"),
        (PRICE_KEYED_QUERY, (None,), "fully-partitioned", "flat_keys"),
        (PRICE_KEYED_QUERY, (2, 2.5), "fully-partitioned", "flat_keys"),
        (VIEWS["party_directory"], (), "fully-partitioned", "flat_keys"),
        (QUERY_1, (), _star_cut, "compact_keys"),
        (QUERY_2, (), _star_cut, "compact_keys"),
    ], ids=["q1", "q2", "price", "a NULL key", "a DECIMAL key of two types",
            "not aligned", "q1 cut at its * edges", "q2 cut at its * edges"])
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


class TestWalk:
    """A fully partitioned run on compact keys is walked, not merged: the
    reference pipeline's characters, counts and top-level marks, held or
    streamed, compact or indented, into a StringIO or a sink."""

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

    def test_a_session_walks_held_streamed_and_spliced(self, tiny_db):
        """``materialize`` (through the splice, before and after writes)
        and ``materialize_to`` walk every fully partitioned plan, the
        splice's segments included, to the reference document, and a
        spliced re-materialization compiles no walk of its own."""
        db = TpchGenerator(scale=TINY_SCALE, seed=42).generate()
        reference_engine = Connection(db, CostModel(), engine="tuple")
        seeds = count(1)
        for rxl in (QUERY_1, QUERY_2):
            for style in PlanStyle:
                for reduce in (False, True):
                    # Its own caches: every plan writes the same document.
                    session = Session(Connection(db, CostModel()))
                    view = session.view(rxl)
                    options = ExecutionOptions(style=style, reduce=reduce)
                    specs = view.specs(view.fully_partitioned(), options)
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
                                rxl, "fully-partitioned", indent=indent,
                                options=traced).xml
                            counters = obs.metrics.snapshot()["counters"]
                            sink = JoinSink()
                            session.materialize_to(
                                rxl, sink, "fully-partitioned",
                                indent=indent, options=options)
                            assert held == sink.value() == expected
                            assert counters.get("merge.walks", 0) >= 1
                            assert not {"merge.compact_keys",
                                        "merge.flat_keys"} & set(counters)
                            if write:
                                assert counters["splice.retagged"] >= 1
                                assert CODE.stats().stores == before

    def test_a_streamed_timeout_reports_as_the_heap_merge(self, tiny_db,
                                                          monkeypatch):
        """The walk primes the cursors in spec order, as the heap merge
        primes its decoders: a streamed plan that runs out of budget
        reports the same stream and the same rows read per stream."""
        session = Session(Connection(tiny_db, CostModel()))
        clean = session.materialize(QUERY_1, "fully-partitioned").report
        times = sorted(stream.server_ms for stream in clean.streams)
        budget = (times[-1] + times[-2]) / 2

        def timed_out():
            with pytest.raises(TimeoutExceeded) as caught:
                session.materialize_to(QUERY_1, io.StringIO(),
                                       "fully-partitioned", budget_ms=budget)
            report = caught.value.report
            return report.timed_out_label, [
                (stream.label, stream.rows) for stream in report.streams]

        walked = timed_out()
        monkeypatch.setattr(Walk, "takes", staticmethod(lambda run: False))
        merged = timed_out()
        assert walked == merged
        label, read = walked
        assert label is not None
        assert any(rows for _, rows in read)

    def _assert_walks(self, tree, specs, rows, db):
        """The walk equals the reference; ``tag_streams`` walks the run,
        held and streamed, and counts it.  Returns the compact document."""
        compact = ComparatorLayout(tree).compact_keys(specs, db)
        assert compact
        for indent in (2, None):
            expected = reference(tree, specs, rows, indent)
            assert kernels(tree, specs, rows, indent, walk=True) == expected
            bare = reference(tree, specs, rows, indent, root_tag=None)
            assert kernels(tree, specs, rows, indent, None, walk=True) == bare
            for streamed in (False, True):
                def streams():
                    return [iter(stream) if streamed else stream
                            for stream in rows]
                obs = ObsOptions()
                xml, counts = tag_streams(tree, specs, streams(),
                                          indent=indent, compact=compact,
                                          obs=obs)
                assert (xml, (counts.elements_written, counts.implicit_opens,
                        counts.max_stack_depth, counts.instances)) \
                    == expected[:2]
                counters = obs.metrics.snapshot()["counters"]
                assert {name: count for name, count in counters.items()
                        if name in _MERGES} == {"merge.walks": 1}
                sink = JoinSink()
                tag_streams(tree, specs, streams(), compact=compact,
                            writer=XmlWriter(sink=sink, indent=indent))
                assert sink.value() == expected[0]
        return expected[0]
