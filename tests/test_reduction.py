"""Tests for view-tree reduction and plan units (repro.core.reduction)."""

import pytest

from repro.common.errors import PlanError
from repro.core.partition import (
    Partition,
    fully_partitioned,
    partition_subtrees,
    unified_partition,
)
from repro.core.reduction import PlanUnit, reduce_subtree


def subtrees_for(tree, partition):
    return partition_subtrees(tree, partition)


def units_of(unit_tree):
    return tuple(unit_tree.root.walk())


def unit_of(unit_tree, node):
    return next(u for u in unit_tree.root.walk() if node in u.members)


class TestNonReduced:
    def test_one_unit_per_node(self, q1_tree):
        [subtree] = subtrees_for(q1_tree, unified_partition(q1_tree))
        unit_tree = reduce_subtree(subtree, reduce=False)
        assert len(units_of(unit_tree)) == 10
        assert all(len(u.members) == 1 for u in units_of(unit_tree))
        assert not unit_tree.reduced

    def test_unit_tree_mirrors_subtree(self, q1_tree):
        [subtree] = subtrees_for(q1_tree, unified_partition(q1_tree))
        unit_tree = reduce_subtree(subtree, reduce=False)
        root = unit_tree.root
        assert root.representative is q1_tree.root
        assert [c.index for c in root.children] == [
            (1, 1), (1, 2), (1, 3), (1, 4)
        ]


class TestReduced:
    def test_unified_reduces_to_three_units(self, q1_tree):
        """Query 1's 1-connected groups: {S1, S1.1, S1.2, S1.3},
        {S1.4, S1.4.1}, {S1.4.2, S1.4.2.1, S1.4.2.2, S1.4.2.3} — the
        Fig. 11 pattern."""
        [subtree] = subtrees_for(q1_tree, unified_partition(q1_tree))
        unit_tree = reduce_subtree(subtree, reduce=True)
        units = units_of(unit_tree)
        assert len(units) == 3
        sizes = sorted(len(u.members) for u in units)
        assert sizes == [2, 4, 4]

    def test_primed_names(self, q1_tree):
        [subtree] = subtrees_for(q1_tree, unified_partition(q1_tree))
        unit_tree = reduce_subtree(subtree, reduce=True)
        names = {u.skolem_name() for u in units_of(unit_tree)}
        assert names == {"S1'", "S1.4'", "S1.4.2'"}

    def test_cut_edges_not_merged(self, q1_tree):
        """Reduction only merges along *kept* 1-labeled edges."""
        partition = Partition([(1, 4), (1, 4, 1)])  # S1.1 etc. cut
        subtrees = subtrees_for(q1_tree, partition)
        all_units = []
        for subtree in subtrees:
            all_units.extend(reduce_subtree(subtree, reduce=True).root.walk())
        merged = [u for u in all_units if u.is_reduced]
        assert len(merged) == 1
        assert {m.sfi for m in merged[0].members} == {"S1.4", "S1.4.1"}

    def test_star_edges_never_merged(self, q1_tree):
        [subtree] = subtrees_for(q1_tree, unified_partition(q1_tree))
        unit_tree = reduce_subtree(subtree, reduce=True)
        for unit in units_of(unit_tree):
            labels = {m.label for m in unit.members if m is not unit.representative}
            assert "*" not in labels

    def test_keep_prohibits_merge(self, q1_tree):
        """The data-size heuristic: prohibited nodes stay separate."""
        [subtree] = subtrees_for(q1_tree, unified_partition(q1_tree))
        unit_tree = reduce_subtree(subtree, reduce=True, keep=[(1, 2)])
        nation_unit = unit_of(unit_tree, q1_tree.node((1, 2)))
        assert len(nation_unit.members) == 1
        assert len(units_of(unit_tree)) == 4

    def test_fully_partitioned_unaffected_by_reduction(self, q1_tree):
        for subtree in subtrees_for(q1_tree, fully_partitioned(q1_tree)):
            unit_tree = reduce_subtree(subtree, reduce=True)
            assert len(units_of(unit_tree)) == 1


class TestCombinedRule:
    def test_merged_head_is_union_of_args(self, q1_tree):
        [subtree] = subtrees_for(q1_tree, unified_partition(q1_tree))
        unit_tree = reduce_subtree(subtree, reduce=True)
        root_unit = unit_tree.root
        fields = [a.field_hint for a in root_unit.args]
        # supplier + name + nation + region values
        assert "suppkey" in fields and "name" in fields
        assert len(root_unit.rules[0].head) == len(root_unit.args)

    def test_merged_atoms_deduplicated(self, q1_tree):
        [subtree] = subtrees_for(q1_tree, unified_partition(q1_tree))
        unit_tree = reduce_subtree(subtree, reduce=True)
        atoms = unit_tree.root.rules[0].atoms
        assert len(atoms) == len(set(atoms))
        tables = {t for t, _ in atoms}
        assert "Supplier" in tables and "Nation" in tables and "Region" in tables

    def test_equalities_deduplicated(self, q1_tree):
        [subtree] = subtrees_for(q1_tree, unified_partition(q1_tree))
        unit_tree = reduce_subtree(subtree, reduce=True)
        eqs = [frozenset(e) for e in unit_tree.root.rules[0].equalities]
        assert len(eqs) == len(set(eqs))


class TestPlanUnit:
    def test_members_must_nest(self, q1_tree):
        with pytest.raises(PlanError, match="subtree"):
            PlanUnit([q1_tree.node((1, 1)), q1_tree.node((1, 2))])

    def test_shared_args(self, q1_tree):
        part = PlanUnit([q1_tree.node((1, 4))])
        order = PlanUnit([q1_tree.node((1, 4, 2))])
        shared = part.shared_args(order)
        assert [a.field_hint for a in shared] == ["suppkey", "partkey"]

    def test_unit_properties(self, q1_tree):
        unit = PlanUnit([q1_tree.node((1, 4, 2))])
        assert unit.index == (1, 4, 2)
        assert unit.level == 3
        assert not unit.is_reduced

    def test_max_index_length_includes_members(self, q1_tree):
        unit = PlanUnit([q1_tree.node((1, 4)), q1_tree.node((1, 4, 1))])
        assert unit.max_index_length() == 3
