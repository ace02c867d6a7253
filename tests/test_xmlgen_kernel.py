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
import importlib.util
import io
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import QUERY_1, QUERY_2, load_view
from repro.common.ordering import flat_key
from repro.core.partition import Partition, unified_partition
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.relational.codegen import CODE
from repro.relational.connection import Connection
from repro.relational.engine import CostModel
from repro.session import Session
from repro.xmlgen.kernel import StreamShape
from repro.xmlgen.serializer import XmlWriter
from repro.xmlgen.streams import (
    ComparatorLayout,
    CountingIterator,
    merge_items,
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
    merged = CountingIterator(merge_streams([
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
                               tagger.max_stack_depth, merged.count), marks


def kernels(tree, specs, rows, indent, root_tag="view", staged=False):
    """The same through :class:`Document`: a lone stream by its
    single-stream kernel (unless ``staged``), else the tag step over the
    merged generated decoders."""
    layout = ComparatorLayout(tree)
    run = [(layout.decoder(spec), stream, spec.label)
           for spec, stream in zip(specs, rows)]
    sink = io.StringIO()
    document = Document(layout, sink, indent, root_tag)
    marks = []
    document.open()
    if len(run) == 1 and not staged:
        document.tag(run[0], marks)
    else:
        document.tag(merge_items([decoder.items(stream, label)
                                  for decoder, stream, label in run]), marks)
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
