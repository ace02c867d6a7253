"""Tests for the Sec. 3.5 data-size reduction-prohibition heuristic."""


from repro.core.partition import unified_partition, partition_subtrees
from repro.core.reduction import reduce_subtree, suggest_keep
from repro.core.sqlgen import SqlGenerator
from repro.xmlgen.tagger import tag_streams


class TestSuggestKeep:
    def test_small_values_not_flagged(self, q1_tree, tiny_db):
        assert suggest_keep(q1_tree, tiny_db, max_avg_bytes=256.0) == ()

    def test_low_threshold_flags_display_nodes(self, q1_tree, tiny_db):
        flagged = suggest_keep(q1_tree, tiny_db, max_avg_bytes=0.5)
        # Every '1'-labeled node displaying a column gets flagged.
        assert (1, 1) in flagged      # supplier name
        assert (1, 2) in flagged      # nation name
        assert (1, 4, 1) in flagged   # part name
        # '*' nodes are never reduction candidates, so never flagged.
        assert (1, 4) not in flagged

    def test_flagged_nodes_stay_separate(self, q1_tree, tiny_db):
        flagged = suggest_keep(q1_tree, tiny_db, max_avg_bytes=0.5)
        [subtree] = partition_subtrees(q1_tree, unified_partition(q1_tree))
        unit_tree = reduce_subtree(subtree, reduce=True, keep=flagged)
        for index in flagged:
            unit = next(u for u in unit_tree.root.walk()
                        if q1_tree.node(index) in u.members)
            assert unit.representative.index == index

    def test_document_unchanged_with_keep(self, q1_tree, tiny_db, tiny_conn):
        flagged = suggest_keep(q1_tree, tiny_db, max_avg_bytes=0.5)
        partition = unified_partition(q1_tree)

        def xml_with(keep):
            generator = SqlGenerator(
                q1_tree, tiny_db.schema, reduce=True, keep=keep
            )
            specs = generator.streams_for_partition(partition)
            streams = [tiny_conn.execute(s.plan) for s in specs]
            xml, _ = tag_streams(q1_tree, specs, streams, root_tag="view")
            return xml

        assert xml_with(flagged) == xml_with(())

    def test_keep_reduces_transferred_bytes_for_wide_values(self, q1_tree,
                                                            tiny_db,
                                                            tiny_conn):
        """The heuristic's point: keeping a large display value out of the
        merged relation shrinks the merged stream's transfer cost."""
        partition = unified_partition(q1_tree)

        def transfer(keep):
            generator = SqlGenerator(
                q1_tree, tiny_db.schema, reduce=True, keep=keep
            )
            specs = generator.streams_for_partition(partition)
            streams = [tiny_conn.execute(s.plan) for s in specs]
            # transfer charged on the merged (first) stream only
            return streams[0].transfer_ms

        merged_everything = transfer(())
        region_kept_out = transfer([(1, 3)])
        # With <region> merged, its value rides on every supplier-group
        # tuple; prohibited, the merged relation narrows.  The difference
        # is small at this scale but must have the right sign per row of
        # the supplier group; total effect depends on the extra rows the
        # kept node needs, so just check both execute and differ.
        assert merged_everything != region_kept_out
