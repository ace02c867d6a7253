"""Tests for view-tree partitioning (repro.core.partition)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import PlanError
from repro.core.partition import (
    Partition,
    enumerate_partitions,
    fully_partitioned,
    partition_subtrees,
    unified_partition,
)


class TestPartition:
    def test_equality_and_hash(self):
        a = Partition([(1, 2), (1, 4)])
        b = Partition([(1, 4), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert len(a.kept) == 2

    def test_keeps(self, q1_tree):
        partition = Partition([(1, 4)])
        assert partition.keeps(q1_tree.node((1, 4)))
        assert not partition.keeps(q1_tree.node((1, 2)))

    def test_repr(self):
        assert "S1.4" in repr(Partition([(1, 4)]))


class TestNamedStrategies:
    def test_unified_keeps_all(self, q1_tree):
        assert len(unified_partition(q1_tree).kept) == 9

    def test_fully_partitioned_keeps_none(self, q1_tree):
        assert len(fully_partitioned(q1_tree).kept) == 0


class TestEnumeration:
    def test_count_is_two_to_the_edges(self, q1_tree):
        """2^9 = 512 plans (Sec. 2)."""
        partitions = list(enumerate_partitions(q1_tree))
        assert len(partitions) == 512
        assert len(set(partitions)) == 512

    def test_extremes_included(self, q1_tree):
        partitions = set(enumerate_partitions(q1_tree))
        assert unified_partition(q1_tree) in partitions
        assert fully_partitioned(q1_tree) in partitions


class TestSubtrees:
    def test_unified_single_subtree(self, q1_tree):
        subtrees = partition_subtrees(q1_tree, unified_partition(q1_tree))
        assert len(subtrees) == 1
        assert subtrees[0].root is q1_tree.root
        assert len(subtrees[0].nodes) == 10

    def test_fully_partitioned_ten_subtrees(self, q1_tree):
        subtrees = partition_subtrees(q1_tree, fully_partitioned(q1_tree))
        assert len(subtrees) == 10
        assert all(len(s.nodes) == 1 for s in subtrees)

    def test_stream_count_is_nodes_minus_edges(self, q1_tree):
        partition = Partition([(1, 2), (1, 4), (1, 4, 2)])
        subtrees = partition_subtrees(q1_tree, partition)
        assert len(subtrees) == 10 - 3

    def test_document_order(self, q1_tree):
        subtrees = partition_subtrees(q1_tree, Partition([(1, 4, 1)]))
        roots = [s.root.sfi for s in subtrees]
        assert roots == sorted(roots, key=lambda s: [int(x) for x in s[1:].split(".")])

    def test_kept_children(self, q1_tree):
        partition = Partition([(1, 4), (1, 4, 1)])
        [*_, part_subtree] = [
            s for s in partition_subtrees(q1_tree, partition)
            if s.contains(q1_tree.node((1, 4)))
        ]
        part = q1_tree.node((1, 4))
        kept = part_subtree.kept_children(part)
        assert [c.sfi for c in kept] == ["S1.4.1"]

    def test_invalid_edge_rejected(self, q1_tree):
        with pytest.raises(PlanError):
            partition_subtrees(q1_tree, Partition([(9, 9)]))

    def test_root_edge_rejected(self, q1_tree):
        with pytest.raises(PlanError):
            partition_subtrees(q1_tree, Partition([(1,)]))


@settings(max_examples=60)
@given(st.sets(st.sampled_from([
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 4, 1), (1, 4, 2),
    (1, 4, 2, 1), (1, 4, 2, 2), (1, 4, 2, 3),
])))
def test_subtrees_partition_nodes(q1_tree, kept):
    """Any edge subset yields connected components covering every node
    exactly once, with #components = #nodes - #edges."""
    partition = Partition(kept)
    subtrees = partition_subtrees(q1_tree, partition)
    seen = []
    for subtree in subtrees:
        for node in subtree.nodes:
            seen.append(node.index)
        # connectivity: every non-root member's parent is in the subtree
        for node in subtree.nodes:
            if node is not subtree.root:
                assert subtree.contains(node.parent)
    assert sorted(seen) == sorted(n.index for n in q1_tree.nodes)
    assert len(subtrees) == 10 - len(kept)
