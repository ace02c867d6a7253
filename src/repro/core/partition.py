"""View-tree partitioning (Sec. 3.2).

A *plan* is a spanning forest of the view tree: any subset of the edge set.
Each tree of the forest (a :class:`Subtree`) becomes one SQL query / tuple
stream, so a view tree with ``|E|`` edges has exactly ``2^|E|`` plans,
ranging from the *unified* plan (all edges kept — one SQL query) to the
*fully partitioned* plan (no edges kept — one SQL query per node).
"""

import itertools

from repro.common.errors import PlanError


class Partition:
    """A subset of view-tree edges, identified by child index."""

    __slots__ = ("kept",)

    def __init__(self, kept_child_indices):
        self.kept = frozenset(tuple(i) for i in kept_child_indices)

    def keeps(self, child_node):
        return child_node.index in self.kept

    def __eq__(self, other):
        return isinstance(other, Partition) and self.kept == other.kept

    def __hash__(self):
        return hash(self.kept)

    def __repr__(self):
        kept = sorted(self.kept)
        return "Partition(" + ", ".join("S" + ".".join(map(str, i)) for i in kept) + ")"


class Subtree:
    """One connected component of a partitioned view tree."""

    def __init__(self, tree, root, nodes):
        self.tree = tree
        self.root = root
        self.nodes = tuple(sorted(nodes, key=lambda n: n.index))

    def contains(self, node):
        return node in self.nodes

    def kept_children(self, node):
        """Children of ``node`` that belong to this subtree."""
        return [c for c in node.children if c in self.nodes]


def unified_partition(tree):
    """Keep every edge: one SQL query for the whole view (Fig. 5(a))."""
    return Partition(child.index for _, child in tree.edges)


def fully_partitioned(tree):
    """Cut every edge: one SQL query per view-tree node (Fig. 5(d))."""
    return Partition(())


def enumerate_partitions(tree):
    """All ``2^|E|`` partitions, from fully partitioned to unified."""
    child_indices = [child.index for _, child in tree.edges]
    for r in range(len(child_indices) + 1):
        for combo in itertools.combinations(child_indices, r):
            yield Partition(combo)


def partition_subtrees(tree, partition):
    """Split the view tree into its partition's connected components,
    ordered by root index (document order)."""
    for index in partition.kept:
        tree.node(index)  # validates membership
        if len(index) < 2:
            raise PlanError("the root has no incoming edge to keep")
    components = []
    assigned = {}
    for node in tree.nodes:  # breadth-first: parents before children
        if node.parent is not None and partition.keeps(node):
            component = assigned[node.parent.index]
            component.append(node)
            assigned[node.index] = component
        else:
            component = [node]
            components.append(component)
            assigned[node.index] = component
    return [Subtree(tree, nodes[0], nodes) for nodes in components]
