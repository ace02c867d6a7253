"""Tests for stream decoding, merging, tagging, and serialization."""

import dataclasses
import itertools

import pytest

from repro.common.errors import PlanError
from repro.core.labeling import label_view_tree
from repro.core.partition import (
    enumerate_partitions,
    fully_partitioned,
    unified_partition,
)
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.core.viewtree import build_view_tree
from repro.rxl.parser import parse_rxl
from repro.xmlgen.serializer import XmlWriter, escape_text, format_value
from repro.xmlgen.streams import (
    ComparatorLayout,
    decode_stream,
    instance_sources,
    iter_instances,
    merge_streams,
)
from repro.xmlgen.tagger import tag_streams


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
        sources, decoded = instance_sources(specs, streams, layout)
        assert decoded == 0
        expected = list(merge_streams(sources))
        assert [(i.key, i.node, i.term) for i in merged] \
            == [(i.key, i.node, i.term) for i in expected]


def reference_decode(spec, rows, layout):
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
                reference = reference_decode(spec, rows, layout)
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
            in_row_order = reference_decode(spec, stream.rows, layout)
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
