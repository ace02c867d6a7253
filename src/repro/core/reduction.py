"""View-tree reduction (Sec. 3.5) and plan units.

A *plan unit* is what one node of a (possibly reduced) subtree becomes in
the generated SQL: a set of original view-tree nodes evaluated by a single
combined datalog rule.  Without reduction every unit has exactly one member.
With reduction, groups of subtree nodes connected by ``1``-labeled kept
edges collapse into one unit whose rule is the conjunction of the members'
bodies and whose head is the union of their Skolem-term arguments — this is
sound precisely because a ``1`` label certifies one-and-exactly-one child
instance per parent instance.

Reduction can be *prohibited* for specific nodes (the paper's data-size
heuristic: a large text value replicated into every tuple of the merged
relation can cost more in transfer than it saves in joins) via ``keep``.
"""

from dataclasses import dataclass

from repro.common.errors import PlanError
from repro.core.viewtree import NodeRule


class PlanUnit:
    """One node of the (reduced) plan tree for a subtree."""

    __slots__ = ("members", "children", "rules", "args")

    def __init__(self, members):
        self.members = tuple(sorted(members, key=lambda n: n.index))
        self.children = []
        root = self.members[0]
        for member in self.members[1:]:
            if not root.is_ancestor_of(member):
                raise PlanError(
                    "plan-unit members must form a subtree rooted at the "
                    f"topmost member; {member.sfi} is not under {root.sfi}"
                )
        if len(self.members) == 1:
            # A fused node (user Skolem function) keeps its several rules;
            # SQL generation unions the per-rule queries.
            self.rules = tuple(self.members[0].rules)
        else:
            self.rules = (_combine_rules(self.members),)
        args = []
        seen = set()
        for member in self.members:
            for stv in member.args:
                if stv not in seen:
                    seen.add(stv)
                    args.append(stv)
        self.args = tuple(sorted(args, key=lambda v: (v.level, v.ordinal)))

    @property
    def rule(self):
        if len(self.rules) != 1:
            raise PlanError(
                f"unit {self.skolem_name()} has {len(self.rules)} rules"
            )
        return self.rules[0]

    @property
    def representative(self):
        return self.members[0]

    @property
    def index(self):
        return self.representative.index

    @property
    def level(self):
        return len(self.index)

    @property
    def is_reduced(self):
        return len(self.members) > 1

    def skolem_name(self):
        """Reduced units get a primed name, e.g. ``S1.4'`` (Fig. 11)."""
        name = self.representative.sfi
        return name + "'" if self.is_reduced else name

    def shared_args(self, child):
        """Skolem-term variables shared with a child unit: the join keys."""
        child_args = set(child.args)
        return tuple(a for a in self.args if a in child_args)

    def max_index_length(self):
        deepest = max(len(m.index) for m in self.members)
        for child in self.children:
            deepest = max(deepest, child.max_index_length())
        return deepest

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class ReducedSubtree:
    """The unit tree produced for one subtree of a partition."""

    subtree: object   # core.partition.Subtree
    root: PlanUnit
    reduced: bool


def reduce_subtree(subtree, reduce=True, keep=()):
    """Build the unit tree for ``subtree``.

    With ``reduce=False`` each node becomes its own unit.  With
    ``reduce=True``, nodes connected through ``1``-labeled kept edges are
    grouped, except nodes whose index appears in ``keep`` (never merged into
    their parent's group).
    """
    keep = {tuple(i) for i in keep}
    group_of = {}
    groups = []
    for node in subtree.nodes:  # parents before children
        mergeable = (
            reduce
            and node is not subtree.root
            and subtree.contains(node.parent)
            and node.label == "1"
            and node.index not in keep
        )
        if mergeable and node.parent.index in group_of:
            group = group_of[node.parent.index]
        else:
            group = []
            groups.append(group)
        group.append(node)
        group_of[node.index] = group

    units = {}
    roots = []
    unit_list = []
    for group in groups:
        unit = PlanUnit(group)
        unit_list.append(unit)
        for member in group:
            units[member.index] = unit
    for unit in unit_list:
        parent_node = unit.representative.parent
        if parent_node is not None and subtree.contains(parent_node):
            units[parent_node.index].children.append(unit)
        else:
            roots.append(unit)
    if len(roots) != 1:
        raise PlanError(f"expected one unit-tree root, found {len(roots)}")
    for unit in unit_list:
        unit.children.sort(key=lambda u: u.index)
    return ReducedSubtree(subtree=subtree, root=roots[0], reduced=reduce)


def suggest_keep(tree, database, max_avg_bytes=256.0):
    """The paper's Sec. 3.5 data-size heuristic: nodes whose displayed data
    is large should be *prohibited* from merging, because reduction would
    replicate the large value into every tuple of the merged relation and
    could increase data-transfer time.

    Returns the indices of ``1``-labeled nodes whose displayed columns
    average more than ``max_avg_bytes`` bytes per instance (per the
    database's statistics), suitable for the ``keep=`` parameter of
    :func:`reduce_subtree` / :class:`repro.core.sqlgen.SqlGenerator`.
    """
    from repro.core.viewtree import Stv

    keep = []
    for node in tree.nodes:
        if node.label != "1":
            continue
        display_bytes = 0.0
        for content in node.contents:
            if isinstance(content, Stv) and content.source is not None:
                table, column = content.source
                stats = database.stats(table)
                display_bytes += stats.column(column).avg_width
        if display_bytes > max_avg_bytes:
            keep.append(node.index)
    return tuple(keep)


def _combine_rules(members):
    """Conjoin the members' single rules into one combined rule."""
    atoms = []
    atom_seen = set()
    equalities = []
    eq_seen = set()
    filters = []
    filter_seen = set()
    head = []
    head_seen = set()
    for member in members:
        if len(member.rules) != 1:
            raise PlanError(
                f"cannot combine fused node {member.sfi} ({len(member.rules)} rules)"
            )
        rule = member.rules[0]
        for atom in rule.atoms:
            if atom not in atom_seen:
                atom_seen.add(atom)
                atoms.append(atom)
        for eq in rule.equalities:
            key = frozenset(eq)
            if key not in eq_seen:
                eq_seen.add(key)
                equalities.append(eq)
        for flt in rule.filters:
            if flt not in filter_seen:
                filter_seen.add(flt)
                filters.append(flt)
        for stv, ref in rule.head:
            if stv not in head_seen:
                head_seen.add(stv)
                head.append((stv, ref))
    head.sort(key=lambda pair: (pair[0].level, pair[0].ordinal))
    return NodeRule(
        atoms=tuple(atoms),
        equalities=tuple(equalities),
        filters=tuple(filters),
        head=tuple(head),
    )
