"""Tests for stream decoding, merging, tagging, and serialization."""

import collections
import dataclasses
import datetime
import importlib.util
import itertools
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import QUERY_1, QUERY_2, load_view
from repro.common.errors import PlanError
from repro.core.labeling import label_view_tree
from repro.core.partition import (
    Partition,
    enumerate_partitions,
    fully_partitioned,
    unified_partition,
)
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.core.viewtree import Stv, ViewTree, ViewTreeNode, build_view_tree
from repro.relational.types import SqlType
from repro.rxl.parser import parse_rxl
from repro.xmlgen.serializer import (
    _CLOSING,
    _OPENING,
    CountingSink,
    XmlWriter,
    escape_text,
    format_value,
)
from repro.xmlgen.kernel import StreamShape
from repro.xmlgen.streams import (
    ComparatorLayout,
    Instance,
    decode_stream,
    instance_sources,
    iter_instances,
    merge_streams,
    reference_decode,
)
from repro.xmlgen.tagger import XmlTagger, tag_streams


@pytest.fixture
def layout(q1_tree):
    return ComparatorLayout(q1_tree)


def executed(tree, db, conn, partition, style=PlanStyle.OUTER_JOIN, reduce=False):
    generator = SqlGenerator(tree, db.schema, style=style, reduce=reduce)
    specs = generator.streams_for_partition(partition)
    streams = [conn.execute(s.plan, compact_rows=s.compact) for s in specs]
    return specs, streams


class TestComparatorLayout:
    def test_display_only_variables_excluded(self, q1_tree, layout):
        """Only key arguments participate in the global comparator."""
        stv_entries = [what for kind, what in layout.entries if kind == "stv"]
        key_stvs = set()
        for node in q1_tree.nodes:
            key_stvs.update(node.key_args)
        assert set(stv_entries) <= key_stvs

    def test_parent_key_is_prefix_of_child_key(self, q1_tree, layout):
        parent = q1_tree.node((1, 4))
        child = q1_tree.node((1, 4, 1))
        values = {"v1_1_suppkey": 3, "v2_6_partkey": 9, "v3_1_name": "x"}
        parent_key = layout.instance_key(parent, values)
        child_key = layout.instance_key(child, values)
        assert parent_key < child_key

    def test_sibling_order_by_index(self, q1_tree, layout):
        values = {"v1_1_suppkey": 3}
        name_key = layout.instance_key(q1_tree.node((1, 1)), values)
        nation_key = layout.instance_key(q1_tree.node((1, 2)), values)
        assert name_key < nation_key

    def test_supplier_order_dominates(self, q1_tree, layout):
        early = layout.instance_key(q1_tree.node((1, 4)),
                                    {"v1_1_suppkey": 1, "v2_6_partkey": 99})
        late = layout.instance_key(q1_tree.node((1, 1)), {"v1_1_suppkey": 2})
        assert early < late


class TestDecodeStream:
    def test_unified_stream_decodes_every_node(self, q1_tree, tiny_db,
                                               tiny_conn, layout):
        [spec], [stream] = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        instances = list(decode_stream(spec, stream.rows, layout))
        nodes_seen = {i.node.sfi for i in instances}
        assert "S1" in nodes_seen and "S1.4.2.3" in nodes_seen

    def test_instances_nondecreasing(self, q1_tree, tiny_db, tiny_conn, layout):
        [spec], [stream] = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        keys = [i.key for i in decode_stream(spec, stream.rows, layout)]
        assert keys == sorted(keys)

    def test_duplicates_suppressed(self, q1_tree, tiny_db, tiny_conn, layout):
        [spec], [stream] = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        instances = list(decode_stream(spec, stream.rows, layout))
        seen = set()
        for inst in instances:
            key = (inst.node.index, inst.identity())
            assert key not in seen
            seen.add(key)

    def test_supplier_count(self, q1_tree, tiny_db, tiny_conn, layout):
        [spec], [stream] = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        instances = list(decode_stream(spec, stream.rows, layout))
        suppliers = [i for i in instances if i.node.sfi == "S1"]
        assert len(suppliers) == len(tiny_db.table("Supplier"))

    def test_reduced_stream_expands_members(self, q1_tree, tiny_db,
                                            tiny_conn, layout):
        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree),
            reduce=True,
        )
        instances = list(decode_stream(specs[0], streams[0].rows, layout))
        nodes_seen = {i.node.sfi for i in instances}
        # Merged members S1.1, S1.2, S1.3 are reconstructed.
        assert {"S1.1", "S1.2", "S1.3"} <= nodes_seen

    def test_bad_row_rejected(self, q1_tree, tiny_db, tiny_conn, layout):
        [spec], _ = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        bad_row = (None,) * len(spec.column_names)
        with pytest.raises(PlanError, match="no L tag"):
            list(decode_stream(spec, [bad_row], layout))


    def test_unknown_unit_rejected(self, q1_tree, tiny_db, tiny_conn, layout):
        [spec], _ = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        names = spec.column_names
        bad_row = tuple(9 if n == "L1" else None for n in names)
        with pytest.raises(PlanError, match=r"no unit with index \(9,\)"):
            list(decode_stream(spec, [bad_row], layout))
        # Equal shapes share one decoder; the error names the stream that
        # was being decoded, not the one the decoder was compiled for.
        renamed = dataclasses.replace(spec, label="renamed")
        assert layout.decoder(renamed) is layout.decoder(spec)
        with pytest.raises(PlanError, match="in stream renamed$"):
            list(decode_stream(renamed, [bad_row], layout))

    def test_l_tags_after_a_null_are_ignored(self, q1_tree, tiny_db,
                                             tiny_conn, layout):
        """The terminal unit is named by the L tags up to the first NULL."""
        [spec], _ = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        row = dict.fromkeys(spec.column_names)
        row.update(L1=1, L3=2, v1_1_suppkey=7)
        [supplier] = decode_stream(spec, [tuple(row.values())], layout)
        assert supplier.node.sfi == "S1" and supplier.identity() == (7,)

    def test_instances_are_slots_objects_with_their_term(
            self, q1_tree, tiny_db, tiny_conn, layout):
        [spec], [stream] = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        for inst in decode_stream(spec, stream.rows, layout):
            assert not hasattr(inst, "__dict__")
            assert inst.identity() == tuple(
                inst.values[stv.name] for stv in inst.node.args
            )
            assert inst.key == layout.instance_key(inst.node, inst.values)

    def test_decoder_compiled_once_per_stream_shape(self, q1_tree, tiny_db,
                                                    layout):
        """Specs are regenerated per execution; the layout keeps one
        compiled decoder per shape, not per spec object."""
        partition = fully_partitioned(q1_tree)
        first = SqlGenerator(q1_tree, tiny_db.schema, reduce=True) \
            .streams_for_partition(partition)
        again = SqlGenerator(q1_tree, tiny_db.schema, reduce=True) \
            .streams_for_partition(partition)
        assert first[0] is not again[0]
        for a, b in zip(first, again):
            assert layout.decoder(a) is layout.decoder(b)
        assert len({id(layout.decoder(spec)) for spec in first}) == len(first)
        [unified] = SqlGenerator(q1_tree, tiny_db.schema, reduce=True) \
            .streams_for_partition(unified_partition(q1_tree))
        [plain] = SqlGenerator(q1_tree, tiny_db.schema, reduce=False) \
            .streams_for_partition(unified_partition(q1_tree))
        assert layout.decoder(unified) is not layout.decoder(plain)

    def test_decoder_cache_evicts_lru_at_its_cap(self, q1_tree, tiny_db,
                                                 layout):
        specs = SqlGenerator(q1_tree, tiny_db.schema, reduce=True) \
            .streams_for_partition(fully_partitioned(q1_tree))
        assert layout._decoders.max_entries == 256
        layout._decoders.max_entries = 2
        decoders = [layout.decoder(spec) for spec in specs]
        assert len(specs) > 2 and len(layout._decoders) == 2
        assert layout.decoder(specs[-1]) is decoders[-1]
        assert layout.decoder(specs[0]) is not decoders[0]

    def test_iter_instances_is_the_merge_of_its_sources(
            self, q1_tree, tiny_db, tiny_conn, layout):
        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, fully_partitioned(q1_tree)
        )
        merged = list(iter_instances(q1_tree, specs, streams))
        sources = instance_sources(specs, streams, layout)
        expected = list(merge_streams(sources))
        assert [(i.key, i.node, i.term) for i in merged] \
            == [(i.key, i.node, i.term) for i in expected]


def row_order_decode(spec, rows, layout):
    """The decoder's definition without its machinery: every member of
    every unit on each row's path, consecutive repeats dropped, keyed by
    the uncompiled :meth:`ComparatorLayout.instance_key` — in *row* order,
    not yet in document order."""
    names = spec.column_names
    l_columns = [names.index(f"L{level}") for level in spec.l_levels]
    memo = {}
    out = []
    for row in rows:
        terminal = tuple(itertools.takewhile(
            lambda tag: tag is not None, (row[p] for p in l_columns)
        ))
        for unit in spec.unit_paths[terminal]:
            for member in unit.members:
                values = {
                    stv.name: row[names.index(stv.name)]
                    for stv in member.args if stv.name in names
                }
                term = tuple(values.get(stv.name) for stv in member.args)
                if memo.get(member.index) != term:
                    memo[member.index] = term
                    out.append(
                        (layout.instance_key(member, values),
                         member.index, term)
                    )
    return out


def decoded_plain(instances):
    return [(i.key, i.node.index, i.identity()) for i in instances]


class TestDecodeOrder:
    """Every stream of every plan decodes into document order, and the
    merge of a plan's streams is the sorted union of them."""

    @pytest.mark.parametrize("tree_name", ["q1_tree", "q2_tree"])
    @pytest.mark.parametrize("reduce", [False, True])
    @pytest.mark.parametrize("style, every", [
        (PlanStyle.OUTER_JOIN, 1),     # all 512 plans
        (PlanStyle.OUTER_UNION, 4),    # every fourth: same subtrees recur
    ])
    def test_every_partition(self, request, tiny_db, tiny_conn, tree_name,
                             reduce, style, every):
        tree = request.getfixturevalue(tree_name)
        layout = ComparatorLayout(tree)
        generator = SqlGenerator(
            tree, tiny_db.schema, style=style, reduce=reduce
        )
        decoded = {}  # id(spec) -> instance list (specs are memoized)
        totals = set()
        partitions = list(enumerate_partitions(tree))
        assert len(partitions) == 512
        for partition in partitions[::every]:
            specs = generator.streams_for_partition(partition)
            for spec in specs:
                if id(spec) in decoded:
                    continue
                rows = tiny_conn.execute(
                    spec.plan, compact_rows=spec.compact
                ).rows
                instances = list(decode_stream(spec, rows, layout))
                keys = [i.key for i in instances]
                assert keys == sorted(keys), spec.label
                reference = row_order_decode(spec, rows, layout)
                assert sorted(decoded_plain(instances)) == sorted(reference)
                decoded[id(spec)] = instances
            streams = [decoded[id(spec)] for spec in specs]
            union = sorted(
                itertools.chain.from_iterable(streams), key=lambda i: i.key
            )
            assert list(merge_streams(streams)) == union
            totals.add(len(union))
        assert len(totals) == 1   # every plan yields the same instances

    def test_merged_member_after_a_sibling_unit_is_deferred(self, tiny_db,
                                                            tiny_conn):
        """The reduced case fixed in PR 1: ``<name>`` (label 1) is merged
        into the supplier's unit but sorts after every ``<part>`` row of
        that supplier, which arrive as later tuples of the same stream —
        so its instance must wait, not be emitted with its row."""
        tree = build_view_tree(parse_rxl(DEFERRED_QUERY), tiny_db.schema)
        label_view_tree(tree, tiny_db.schema)
        assert tree.node((1, 1)).label == "*"
        assert tree.node((1, 2)).label == "1"
        layout = ComparatorLayout(tree)
        for style in PlanStyle:
            [spec], [stream] = executed(
                tree, tiny_db, tiny_conn, unified_partition(tree),
                style=style, reduce=True,
            )
            [supplier_unit] = spec.unit_paths[(1,)]
            assert [m.index for m in supplier_unit.members] == [(1,), (1, 2)]
            in_row_order = row_order_decode(spec, stream.rows, layout)
            keys = [key for key, _, _ in in_row_order]
            assert keys != sorted(keys)       # emitting per row is wrong
            instances = list(decode_stream(spec, stream.rows, layout))
            assert decoded_plain(instances) == sorted(in_row_order)
            reference, _ = tag_streams(tree, *executed(
                tree, tiny_db, tiny_conn, fully_partitioned(tree),
            ), root_tag="doc")
            xml, tagger = tag_streams(tree, [spec], [stream], root_tag="doc")
            assert xml == reference
            assert tagger.implicit_opens == 0


#: supplier -> its parts ('*', kept as its own unit) -> then its name
#: ('1', merged into the supplier's unit by reduction).
DEFERRED_QUERY = """
from Supplier $s
construct
  <supplier>
    { from PartSupp $ps where $s.suppkey = $ps.suppkey
      construct <part>$ps.partkey</part> }
    <name>$s.name</name>
  </supplier>
"""


class TestMerge:
    def test_single_stream_passes_through(self):
        items = iter([3, 1, 2])   # not even sorted: nothing is compared
        assert list(merge_streams([items])) == [3, 1, 2]

    def test_merge_is_lazy_over_iterators(self, q1_tree, tiny_db, tiny_conn,
                                          layout):
        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, fully_partitioned(q1_tree)
        )
        pulled = []

        def rows_of(stream):
            for row in stream.rows:
                pulled.append(row)
                yield row

        merged = merge_streams(
            decode_stream(spec, rows_of(stream), layout)
            for spec, stream in zip(specs, streams)
        )
        first = next(merged)
        assert first.node.sfi == "S1"
        # one row (at most two, to see a group close) per stream so far
        assert len(pulled) <= 2 * len(specs)

    def test_merge_is_globally_sorted(self, q1_tree, tiny_db, tiny_conn, layout):
        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, fully_partitioned(q1_tree)
        )
        decoded = [
            decode_stream(spec, stream.rows, layout)
            for spec, stream in zip(specs, streams)
        ]
        keys = [i.key for i in merge_streams(decoded)]
        assert keys == sorted(keys)


class TestTagger:
    def test_tag_streams_returns_xml(self, q1_tree, tiny_db, tiny_conn):
        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        xml, tagger = tag_streams(q1_tree, specs, streams, root_tag="view")
        assert xml.startswith("<view>")
        assert xml.endswith("</view>")
        assert tagger.implicit_opens == 0

    def test_stack_bounded_by_tree_depth(self, q1_tree, tiny_db, tiny_conn):
        """Constant space: the stack never exceeds the view-tree depth."""
        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        _, tagger = tag_streams(q1_tree, specs, streams, root_tag=None)
        assert tagger.max_stack_depth <= q1_tree.max_depth()

    def test_element_counts_match_database(self, q1_tree, tiny_db, tiny_conn):
        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        xml, _ = tag_streams(q1_tree, specs, streams, root_tag="view")
        n_suppliers = len(tiny_db.table("Supplier"))
        n_parts = len(tiny_db.table("PartSupp"))
        assert xml.count("<supplier>") == n_suppliers
        assert xml.count("<part>") == n_parts
        assert xml.count("<order>") == len(tiny_db.table("LineItem"))

    def test_childless_supplier_still_appears(self, q1_tree, tiny_db, tiny_conn):
        stocked = {r[1] for r in tiny_db.table("PartSupp")}
        stockless = [
            r[0] for r in tiny_db.table("Supplier") if r[0] not in stocked
        ]
        assert stockless  # generator guarantees some
        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        xml, _ = tag_streams(q1_tree, specs, streams, root_tag="view")
        names = {
            r[1] for r in tiny_db.table("Supplier") if r[0] in stockless
        }
        for name in names:
            assert name in xml

    def test_no_root_tag(self, q1_tree, tiny_db, tiny_conn):
        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        xml, _ = tag_streams(q1_tree, specs, streams, root_tag=None)
        assert xml.startswith("<supplier>")

    def test_empty_streams_produce_empty_document(self, q1_tree, tiny_db,
                                                  tiny_conn):
        generator = SqlGenerator(q1_tree, tiny_db.schema)
        specs = generator.streams_for_partition(unified_partition(q1_tree))
        xml, tagger = tag_streams(q1_tree, specs, [[]], root_tag="view")
        assert xml == "<view></view>"
        assert tagger.elements_written == 0


class TestSerializer:
    def test_escaping(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_format_value(self):
        import datetime

        assert format_value(3) == "3"
        assert format_value(3.14159) == "3.14"
        assert format_value(datetime.date(2001, 5, 21)) == "2001-05-21"
        assert format_value("x") == "x"

    def test_compact_output(self):
        writer = XmlWriter()
        writer.start_element("a")
        writer.text("hi")
        writer.end_element("a")
        assert writer.getvalue() == "<a>hi</a>"

    def test_indented_output(self):
        writer = XmlWriter(indent=2)
        writer.start_element("a")
        writer.start_element("b")
        writer.text("x")
        writer.end_element("b")
        writer.end_element("a")
        assert writer.getvalue() == "<a>\n  <b>x</b>\n</a>"

    def test_external_sink(self):
        class ListSink:
            def __init__(self):
                self.chunks = []

            def write(self, text):
                self.chunks.append(text)

        sink = ListSink()
        writer = XmlWriter(sink=sink)
        writer.start_element("a")
        writer.end_element("a")
        assert "".join(sink.chunks) == "<a></a>"
        with pytest.raises(TypeError):
            writer.getvalue()

    class _StrSubclass(str):
        pass

    #: (value, character data) — the exact types a column holds and the
    #: ones that fall back to ``escape_text``.
    CORPUS = [
        ("plain", "plain"),
        ("a&b", "a&amp;b"),
        ("<tag>", "&lt;tag&gt;"),
        ("x > y & y < z", "x &gt; y &amp; y &lt; z"),
        ("", ""),
        (_StrSubclass("s<t"), "s&lt;t"),
        (True, "True"),
        (False, "False"),
        (0, "0"),
        (-42, "-42"),
        (3.14159, "3.14"),
        (2.5, "2.50"),
        (-0.004, "-0.00"),
        (1e21, "1000000000000000000000.00"),
        (datetime.date(2001, 5, 21), "2001-05-21"),
        (datetime.datetime(2001, 5, 21, 9, 30), "2001-05-21T09:30:00"),
    ]

    @pytest.mark.parametrize("value, expected", CORPUS,
                             ids=[repr(v) for v, _ in CORPUS])
    def test_compact_character_data(self, value, expected):
        writer = XmlWriter()
        writer.start_element("v")
        writer.text(value)
        writer.end_element("v")
        assert writer.getvalue() == f"<v>{expected}</v>"
        assert escape_text(value) == expected

    def test_tagger_skips_a_null_value(self):
        tree, (g, p, c) = _hand_built_tree()
        xml = XmlTagger(tree, XmlWriter()).run([
            Instance(None, g, (1,)),
            Instance(None, p, (1, 5)),
            Instance(None, c, (1, 5, 9, None)),
        ]).getvalue()
        assert xml == "<g>1<p>5<c></c></p></g>"

    def test_markup_is_shared_and_bounded(self):
        tags = [f"t{i}" for i in range(1500)]
        writer = XmlWriter()
        for tag in tags:
            writer.start_element(tag)
            writer.end_element(tag)
        assert writer.getvalue() == "".join(f"<{t}></{t}>" for t in tags)
        assert len(_OPENING) <= 1024 and len(_CLOSING) <= 1024

    def test_overriding_subclass_receives_every_event(self, q1_tree, tiny_db,
                                                      tiny_conn):
        """The compact fast path lives inside the three methods, so a
        subclass overriding them sees every event the tagger makes."""

        class Counting(XmlWriter):
            def __init__(self):
                super().__init__()
                self.events = collections.Counter()

            def start_element(self, tag):
                self.events["start"] += 1
                super().start_element(tag)

            def text(self, value):
                self.events["text"] += 1
                super().text(value)

            def end_element(self, tag):
                self.events["end"] += 1
                super().end_element(tag)

        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, fully_partitioned(q1_tree)
        )
        recorder = RecordingWriter()
        XmlTagger(q1_tree, recorder, root_tag="view").run(
            iter_instances(q1_tree, specs, streams))
        writer = Counting()
        xml, _ = tag_streams(q1_tree, specs, streams, root_tag="view",
                             writer=writer)
        kinds = collections.Counter(kind for kind, _ in recorder.events)
        assert writer.events == kinds
        assert xml == recorder.replay(XmlWriter()).getvalue()

    def test_a_type_error_inside_getvalue_is_not_swallowed(
            self, q1_tree, tiny_db, tiny_conn):
        class Broken(XmlWriter):
            def getvalue(self):
                raise TypeError("broken getvalue")

        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        with pytest.raises(TypeError, match="broken getvalue"):
            tag_streams(q1_tree, specs, streams, writer=Broken())

    def test_an_external_sink_returns_the_writer(self, q1_tree, tiny_db,
                                                 tiny_conn):
        specs, streams = executed(
            q1_tree, tiny_db, tiny_conn, unified_partition(q1_tree)
        )
        writer = XmlWriter(sink=CountingSink())
        result, _ = tag_streams(q1_tree, specs, streams, writer=writer)
        assert result is writer
        assert writer.sink.chars == len(
            tag_streams(q1_tree, specs, streams)[0])


class RecordingWriter:
    """Keeps the tagger's events, to compare two taggers event by event."""

    def __init__(self):
        self.events = []

    def start_element(self, tag):
        self.events.append(("start", tag))

    def text(self, value):
        self.events.append(("text", value))

    def end_element(self, tag):
        self.events.append(("end", tag))

    def replay(self, writer):
        handlers = {"start": writer.start_element, "text": writer.text,
                    "end": writer.end_element}
        for kind, value in self.events:
            handlers[kind](value)
        return writer


class ForwardTagger(XmlTagger):
    """The tagger as first written, every chain matched root first with
    one key comparison per level: the reference the deepest-frame-first
    matching must reproduce."""

    def run(self, instances):
        writer = self.writer
        if self.root_tag is not None:
            writer.start_element(self.root_tag)
        stack = []
        for instance in instances:
            node, term = instance.node, instance.term
            chain, _ = self._chain(node)
            common = 0
            for element, key_of, _ in chain:
                if common == len(stack):
                    break
                frame = stack[common]
                if frame[0] is not element or frame[1] != key_of(term):
                    break
                if element is node and frame[2] is not None \
                        and frame[2] != term:
                    break
                common += 1
            else:
                continue  # duplicate instance; element already open
            while len(stack) > common:
                writer.end_element(stack.pop()[0].tag)
            for element, key_of, contents in chain[common:]:
                own = element is node
                self.implicit_opens += not own
                stack.append((element, key_of(term), term if own else None))
                writer.start_element(element.tag)
                for index, literal in contents:
                    if index is None:
                        writer.text(literal)
                    elif term[index] is not None:
                        writer.text(term[index])
            self.elements_written += len(chain) - common
            self.max_stack_depth = max(self.max_stack_depth, len(chain))
        while stack:
            writer.end_element(stack.pop()[0].tag)
        if self.root_tag is not None:
            writer.end_element(self.root_tag)
        return writer


class AssumedNestedTagger(XmlTagger):
    """The tagger with every chain matched deepest frame first, whether
    or not its keys nest."""

    def _chain(self, node):
        chain, _ = super()._chain(node)
        return chain, True


def _nests(tree, node):
    """Whether ``node``'s tagger chain is nested."""
    return XmlTagger(tree, None)._chain(node)[1]


def _hand_built_tree():
    """``<g ID=G(g)>g<p ID=P(p)>p<c ID=C(p, c)>d</c></p></g>``, each
    term carrying its ancestors' variables: ``<p>``'s key does not
    include ``<g>``'s, so no chain through ``<p>`` is nested."""
    g, p, c, d = (Stv(level, 1, name, SqlType.INTEGER, ("T", name))
                  for level, name in ((1, "g"), (2, "p"), (3, "c"), (4, "d")))
    nodes = []
    for index, tag, args, keys in (((1,), "g", (g,), (g,)),
                                   ((1, 1), "p", (g, p), (p,)),
                                   ((1, 1, 1), "c", (g, p, c, d), (p, c))):
        node = ViewTreeNode(tag, skolem_name=tag.upper())
        node.index, node.args, node.key_args = index, args, keys
        node.contents = [args[-1]]
        if nodes:
            node.parent = nodes[-1]
            nodes[-1].children = [node]
        nodes.append(node)
    return ViewTree(nodes[0], {n.index: n for n in nodes}, (g, p, c, d)), \
        nodes


def _example(name):
    path = pathlib.Path(__file__).resolve().parent.parent / "examples" \
        / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _party_directory_tree(schema):
    return load_view(_example("custom_catalog").PARTY_DIRECTORY, schema)


def _view_trees(schema):
    """Every view tree the repository builds, by name."""
    catalog = _example("custom_catalog")
    quickstart = _example("quickstart")
    trees = {
        f"{name}{'-simplified' if simplify else ''}":
            load_view(query, schema, simplify_args=simplify)
        for name, query in (("q1", QUERY_1), ("q2", QUERY_2),
                            ("region_catalog", catalog.REGION_CATALOG))
        for simplify in (False, True)
    }
    trees["quickstart"] = load_view(quickstart.VIEW, quickstart.schema)
    return trees


class TestNestedKeys:
    """Deepest-frame-first matching is sound where every element's key
    arguments include its parent's."""

    def test_every_view_tree_of_the_repository_nests(self, schema):
        for name, tree in _view_trees(schema).items():
            for node in tree.nodes:
                if node.parent is not None:
                    assert set(node.parent.key_args) <= set(node.key_args), \
                        (name, node)
                assert _nests(tree, node), (name, node)

    def test_a_user_skolem_function_can_break_the_nesting(self, schema):
        tree = _party_directory_tree(schema)
        nested = {node.tag: _nests(tree, node) for node in tree.nodes}
        assert nested == {"directory": True, "party": False}

    def test_a_chain_that_does_not_nest_is_matched_root_first(self):
        """``<c>`` 8 under ``<p>`` 5 of ``<g>`` 2 arrives while ``<p>`` 5
        of ``<g>`` 1 is open: its ``<p>`` frame matches, its ``<g>`` frame
        does not.  Ending the search at the first match would put it under
        ``<g>`` 1."""
        tree, (g, p, c) = _hand_built_tree()
        nested = {n.tag: _nests(tree, n) for n in (g, p, c)}
        assert nested == {"g": True, "p": False, "c": False}
        runs = _three_ways(tree, [
            Instance(None, g, (1,)),
            Instance(None, p, (1, 5)),
            Instance(None, c, (1, 5, 9, 90)),
            Instance(None, c, (2, 5, 8, 80)),
        ])
        assert runs[XmlTagger] == runs[ForwardTagger] == (
            "<g>1<p>5<c>90</c></p></g><g>2<p>5<c>80</c></p></g>", 2)
        assert runs[AssumedNestedTagger][0] \
            == "<g>1<p>5<c>90</c><c>80</c></p></g>"

    def test_siblings_sharing_a_key_are_told_apart_by_their_terms(self):
        """Two ``<c>`` with key ``(5, 9)`` and different terms are two
        elements; the same term twice is one."""
        tree, (g, p, c) = _hand_built_tree()
        runs = _three_ways(tree, [
            Instance(None, g, (1,)),
            Instance(None, p, (1, 5)),
            Instance(None, c, (1, 5, 9, 90)),
            Instance(None, c, (1, 5, 9, 91)),
            Instance(None, c, (1, 5, 9, 91)),
        ])
        assert set(runs.values()) == {
            ("<g>1<p>5<c>90</c><c>91</c></p></g>", 0)}


def _three_ways(tree, instances):
    """``tagger class -> (document, implicit opens)``."""
    runs = {}
    for tagger_class in (XmlTagger, ForwardTagger, AssumedNestedTagger):
        tagger = tagger_class(tree, XmlWriter())
        runs[tagger_class] = (tagger.run(instances).getvalue(),
                              tagger.implicit_opens)
    return runs


def _partitions(tree):
    edges = [child.index for _, child in tree.edges]
    return st.sets(st.sampled_from(edges)).map(
        lambda chosen: Partition(frozenset(chosen)))


@pytest.fixture(scope="module")
def q1_simplified(tiny_db):
    return load_view(QUERY_1, tiny_db.schema, simplify_args=True)


class TestDeepestFrameFirst:
    """The tagger emits exactly the forward reference's events."""

    @pytest.mark.parametrize("tree_name",
                             ["q1_tree", "q2_tree", "q1_simplified"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_events_as_the_forward_reference(
            self, request, tiny_db, tiny_conn, tree_name, data):
        tree = request.getfixturevalue(tree_name)
        partition = data.draw(_partitions(tree))
        style = data.draw(st.sampled_from(list(PlanStyle)))
        reduce = data.draw(st.booleans())
        specs, streams = executed(tree, tiny_db, tiny_conn, partition,
                                  style=style, reduce=reduce)
        merged = list(iter_instances(tree, specs, streams))
        runs = []
        for tagger_class in (XmlTagger, ForwardTagger):
            tagger = tagger_class(tree, RecordingWriter(), root_tag="view")
            runs.append((
                tagger.run(merged).events, tagger.elements_written,
                tagger.implicit_opens, tagger.max_stack_depth,
            ))
        assert runs[0] == runs[1]
        assert runs[0][2] == 0

    def test_party_directory_keeps_its_document(self, tiny_db, tiny_conn):
        tree = _party_directory_tree(tiny_db.schema)
        for partition in enumerate_partitions(tree):
            specs, streams = executed(tree, tiny_db, tiny_conn, partition)
            merged = list(iter_instances(tree, specs, streams))
            assert XmlTagger(tree, XmlWriter()).run(merged).getvalue() \
                == ForwardTagger(tree, XmlWriter()).run(merged).getvalue()


def _decided(tree, spec):
    """terminal -> whether the compile-time order table decided the
    path's member order."""
    return {terminal: late is not None for terminal, _, _, late, _ in
            StreamShape(ComparatorLayout(tree).shape, spec).paths}


class TestDecoderOrderTable:
    """A decoder whose path order was decided when it was compiled emits
    what the per-row sort and split would, instance for instance."""

    @staticmethod
    def _both_ways(tree, db, conn, partition, style, reduce):
        layout = ComparatorLayout(tree)
        specs, streams = executed(tree, db, conn, partition, style=style,
                                  reduce=reduce)
        for spec, stream in zip(specs, streams):
            fast = decode_stream(spec, stream.rows, layout)
            generic = reference_decode(spec, stream.rows, layout)
            yield spec, stream, decoded_plain(fast), decoded_plain(generic)

    @pytest.mark.parametrize("tree_name", ["q1_tree", "q2_tree"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_decided_paths_equal_the_generic_path(
            self, request, tiny_db, tiny_conn, tree_name, data):
        tree = request.getfixturevalue(tree_name)
        partition = data.draw(_partitions(tree))
        style = data.draw(st.sampled_from(list(PlanStyle)))
        reduce = data.draw(st.booleans())
        for spec, _, fast, generic in self._both_ways(
                tree, tiny_db, tiny_conn, partition, style, reduce):
            assert all(_decided(tree, spec).values())
            assert fast == generic

    def test_reduction_leaves_members_after_the_row(self, q1_tree, tiny_db,
                                                    tiny_conn):
        [spec] = SqlGenerator(q1_tree, tiny_db.schema, reduce=True) \
            .streams_for_partition(unified_partition(q1_tree))
        late = [late for *_, late, _ in StreamShape(
            ComparatorLayout(q1_tree).shape, spec).paths]
        assert any(late)

    @pytest.mark.parametrize("style", list(PlanStyle))
    @pytest.mark.parametrize("reduce", [False, True])
    def test_an_undecidable_member_keeps_the_generic_path(
            self, tiny_db, tiny_conn, style, reduce):
        """``<party>`` does not carry the directory's key, so where the
        two keys first differ one side is a row value: the party path is
        sorted per row, the directory path beside it in the same stream
        is not."""
        tree = _party_directory_tree(tiny_db.schema)
        for spec, stream, fast, generic in self._both_ways(
                tree, tiny_db, tiny_conn, unified_partition(tree), style,
                reduce):
            assert _decided(tree, spec) == {(1,): True, (1, 1): False}
            assert fast == generic
            assert sorted(fast) == sorted(
                row_order_decode(spec, stream.rows, ComparatorLayout(tree)))
