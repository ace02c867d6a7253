"""SQL generation for partitioned view trees (Sec. 3.4).

For each subtree of a partition, one query is generated whose result is the
subtree's *partitioned relation*: schema ``L1..Lmax`` (Skolem-function-index
tags) plus the Skolem-term variables of the subtree, one tuple per path from
the subtree root to a terminal node instance, sorted by the interleaved key
``L1, V(1,*), L2, V(2,*), ...`` with NULLS FIRST.

Two generation styles are implemented (the paper's Sec. 3.4 distinction):

* **outer-join** (SilkRoute's): ``R ⟕ (S ∪ T)`` — each node's base query is
  left-outer-joined with the outer union of its children's recursively
  generated queries, using the tagged ON disjunction
  ``(L2=1 AND ...) OR (L2=2 AND ...)``.  Bare parent tuples appear only when
  a parent instance matches no child at all.
* **outer-union** ([9]'s): ``(R ⟕ S) ∪ (R ⟕ T)`` — one branch per node,
  each a chain of joins along the root-to-node path (inner joins for
  ``1``/``+`` edges, outer joins otherwise), combined by outer union.  This
  produces more (but effectively narrower) tuples.

Each node's ``L`` tag constant is embedded in that node's own base query, so
an unmatched outer join leaves it NULL and the deepest non-NULL ``L`` column
always identifies the tuple's terminal node.
"""

import enum
import sys
from dataclasses import dataclass
from functools import cached_property

from repro.common.errors import PlanError
from repro.relational.algebra import (
    And,
    ColumnRef,
    Comparison,
    ConstantColumn,
    Distinct,
    Filter,
    InnerJoin,
    JoinBranch,
    LeftOuterJoin,
    Literal,
    OuterUnion,
    Project,
    ProjectItem,
    Scan,
    Sort,
    count_operators,
)
from repro.obs.tracer import NULL_SPAN, NULL_TRACER
from repro.relational.pipeline import column_facts
from repro.relational.sqltext import render_sql, render_sql_with
from repro.relational.types import SqlType
from repro.core.partition import partition_subtrees
from repro.core.reduction import reduce_subtree

_JOIN_PREFIX = "jk_"
_BRANCH_TAG = "Btag"


class PlanStyle(enum.Enum):
    """How combined queries are phrased (Sec. 3.4)."""

    OUTER_JOIN = "outer-join"
    OUTER_UNION = "outer-union"


@dataclass
class StreamSpec:
    """Everything needed to execute and decode one subtree's tuple stream."""

    plan: object                 # algebra operator, Sort at the top
    sort_keys: tuple
    l_levels: tuple              # the levels j for which an Lj column exists
    stvs: tuple                  # Stv columns, in schema order
    unit_paths: dict             # terminal rep-index -> (PlanUnit,) root..terminal
    compact: bool                # transfer rows in compact (union) format
    label: str
    style: PlanStyle

    # Worked out on first use and kept (a raced first use computes twice).

    @cached_property
    def sql(self):
        """The SQL text actually sent to the RDBMS."""
        return render_sql(self.plan)

    @property
    def sql_with(self):
        """The same query phrased with the SQL ``WITH`` clause for shared
        node queries (footnote 1) — for targets whose source description
        sets ``supports_with``."""
        return render_sql_with(self.plan)

    @cached_property
    def column_names(self):
        return tuple(c.name for c in self.plan.columns())

    @property
    def column_facts(self):
        """The plan's :func:`~repro.relational.pipeline.column_facts`
        (kept on the plan)."""
        return column_facts(self.plan)

    def uses_outer_join(self):
        return count_operators(self.plan, LeftOuterJoin) > 0

    def uses_union(self):
        return count_operators(self.plan, OuterUnion) > 0


class SqlGenerator:
    """Generates one :class:`StreamSpec` per subtree of a partition.

    A view definition keeps one generator per ``(style, reduce, keep)`` for
    the process, and exports, greedy costing, ``explain`` and sweeps (all
    2^|E| partitions) plan from it.  The same subtree — the same node set —
    recurs across most partitions, so specs are memoized by node-index set:
    a partition is served from the *same* specs every time.  The memo is
    bounded by the tree (512 partitions of nine edges share 233 subtrees).
    Below the specs, plan units and operators are hash-consed: one equal
    to one made before *is* that one (an operator by fingerprint and
    columns), so each unit's sub-plan is built once and specs share their
    sub-plans with the fingerprints, table sets and lowerings kept on them.
    Specs are immutable and nothing here is per-request, so threads share
    them (a raced first use keeps one).
    """

    def __init__(self, tree, schema, style=PlanStyle.OUTER_JOIN,
                 reduce=False, keep=()):
        self.tree = tree
        self.schema = schema
        self.style = style
        self.reduce = reduce
        self.keep = tuple(keep)
        self._stream_cache = {}
        self._rule_plans = {}
        self._items = {}
        self._ops = {}
        self._units = {}
        self._unit_plans = {}

    def streams_for_partition(self, partition, tracer=NULL_TRACER):
        """The partitioned relations' queries, in document order; the
        calling request's ``tracer`` gets a ``reduce`` span per subtree
        actually reduced (memo misses only)."""
        subtrees = partition_subtrees(self.tree, partition)
        return [self.stream_for_subtree(s, tracer) for s in subtrees]

    def stream_for_subtree(self, subtree, tracer=NULL_TRACER):
        key = tuple(node.index for node in subtree.nodes)
        spec = self._stream_cache.get(key)
        if spec is None:
            with (tracer.span("reduce", nodes=len(subtree.nodes))
                  if self.reduce else NULL_SPAN):
                unit_tree = reduce_subtree(
                    subtree, reduce=self.reduce, keep=self.keep
                )
            spec = self._stream_cache.setdefault(
                key, self._build_stream(self._unit(unit_tree.root))
            )
        return spec

    def _unit(self, unit):
        """``unit``, or the unit made before with its members and (shared)
        children: a unit's plan depends on nothing else."""
        unit.children = [self._unit(child) for child in unit.children]
        key = (unit.members, tuple(map(id, unit.children)))
        return self._units.setdefault(key, unit)

    # -- stream assembly -------------------------------------------------------

    def _build_stream(self, root):
        if self.style is PlanStyle.OUTER_JOIN:
            body = self._outer_join_plan(root)
        else:
            body = self._outer_union_plan(root)

        l_levels, stvs = self._subtree_schema(root)
        body = self._canonicalize(body, root, l_levels, stvs)
        sort_keys = self._sort_keys(l_levels, stvs)
        plan = self._op(Sort(body, sort_keys))

        unit_paths = {}
        self._collect_paths(root, (), unit_paths)
        return StreamSpec(
            plan=plan,
            sort_keys=plan.keys,
            l_levels=tuple(l_levels),
            stvs=tuple(stvs),
            unit_paths=unit_paths,
            compact=self.style is PlanStyle.OUTER_UNION,
            label=root.skolem_name(),
            style=self.style,
        )

    def _collect_paths(self, unit, prefix, out):
        path = prefix + (unit,)
        out[unit.index] = path
        for child in unit.children:
            self._collect_paths(child, path, out)

    def _subtree_schema(self, root):
        max_len = root.max_index_length()
        l_levels = list(range(1, max_len + 1))
        stvs = []
        seen = set()
        for unit in root.walk():
            for stv in unit.args:
                if stv not in seen:
                    seen.add(stv)
                    stvs.append(stv)
        stvs.sort(key=lambda v: (v.level, v.ordinal))
        return l_levels, stvs

    def _sort_keys(self, l_levels, stvs):
        """Interleaved ``L1, V(1,*), L2, V(2,*), ...`` (Sec. 3.2)."""
        keys = []
        max_level = max(l_levels) if l_levels else 0
        for level in range(1, max_level + 1):
            if level in l_levels:
                keys.append(_l_name(level))
            keys.extend(v.name for v in stvs if v.level == level)
        return keys

    def _canonicalize(self, body, root, l_levels, stvs):
        """Project to the canonical column order, adding the constant upper
        L tags shared by every tuple of the subtree (the subtree root's
        index prefix) and NULL columns for anything the body lacks."""
        present = set(c.name for c in body.columns())
        items = []
        root_prefix = {
            level: root.index[level - 1] for level in range(1, root.level + 1)
        }
        for level in l_levels:
            name = _l_name(level)
            if name in present:
                items.append(self._item(name))
            elif level < root.level:
                items.append(self._constant(name, root_prefix[level]))
            else:
                items.append(self._constant(name, None))
        for stv in stvs:
            if stv.name in present:
                items.append(self._item(stv.name))
            else:
                items.append(self._constant(stv.name, None, stv.sql_type))
        return self._op(Project(body, items))

    def _item(self, column, name=None):
        """The item reading ``column`` as ``name`` (default: its own)."""
        return self._shared(ProjectItem(ColumnRef(column), name or column))

    def _constant(self, name, value, sql_type=SqlType.INTEGER):
        """The item of a constant column: an L tag, a branch tag, a NULL."""
        return self._shared(ConstantColumn(name, value, sql_type))

    def _renamed(self, plan, keys):
        """``plan`` with its ``keys`` columns renamed apart, as the right
        input of a join on them."""
        return self._op(Project(plan, [
            self._item(c.name, _join_key(c.name) if c.name in keys else None)
            for c in plan.columns()
        ]))

    def _shared(self, item):
        """``item``, or the equal one made before: the generator's
        projections share their items, and the items their fingerprints."""
        return self._items.setdefault(item, item)

    def _op(self, op):
        """``op``, or the operator made before with its fingerprint and
        columns: the generator's plans share their equal sub-plans.  The
        columns are in the key because a fingerprint omits a constant's
        declared type (a NULL as INTEGER or as VARCHAR)."""
        return self._ops.setdefault((op.fingerprint(), op.columns()), op)

    # -- node (unit) base queries ------------------------------------------------

    def _node_query(self, unit):
        """The unit's datalog rule(s) as algebra.  A fused node (several
        rules from one user Skolem function) becomes the outer union of its
        per-rule queries with set semantics."""
        if len(unit.rules) > 1:
            branches = [self._rule_query(unit, rule) for rule in unit.rules]
            return self._op(OuterUnion(branches, distinct=True))
        return self._rule_query(unit, unit.rule)

    def _rule_query(self, unit, rule):
        """One rule as joins of the body atoms, filters, and a DISTINCT
        projection onto the Skolem-term arguments (memoized)."""
        plan = self._rule_plans.get(rule)
        if plan is None:
            if not rule.atoms:
                raise PlanError(f"unit {unit.skolem_name()} has an empty body")
            plan = self._rule_plans.setdefault(
                rule, self._op(rule_to_algebra(rule, self.schema)))
        return plan

    # -- outer-join style (SilkRoute's generator) -----------------------------------

    def _outer_join_plan(self, unit, parent_level=None):
        """:meth:`_outer_join`, built once per (hash-consed) unit."""
        key = (unit, parent_level)
        if key not in self._unit_plans:
            self._unit_plans[key] = self._outer_join(unit, parent_level)
        return self._unit_plans[key]

    def _outer_join(self, unit, parent_level):
        """``base ⟕ (child1 ∪ child2 ∪ ...)`` with a tagged ON disjunction;
        the unit's L tags are constants on every output row.

        A unit emits the L constants for every level between its parent
        unit's representative and its own index (``parent_level+1`` ..
        ``unit.level``): when reduction merges a deeper member into the
        parent, the child unit hangs off that member and must bridge the
        intermediate levels itself, or the decoder would see a NULL gap in
        the L path and stop early."""
        base = self._node_query(unit)
        own_tags = self._l_constants(unit, parent_level)
        own_items = own_tags + [self._item(stv.name) for stv in unit.args]
        if not unit.children:
            return self._op(Project(base, own_items))

        child_plans = []
        for ordinal, child in enumerate(unit.children):
            plan = self._outer_join_plan(child, unit.level)
            items = [self._item(c.name) for c in plan.columns()]
            items.append(self._constant(_BRANCH_TAG, ordinal))
            child_plans.append(self._op(Project(plan, items)))
        union = (child_plans[0] if len(child_plans) == 1
                 else self._op(OuterUnion(child_plans)))

        join_key_names = set()
        for child in unit.children:
            join_key_names.update(s.name for s in unit.shared_args(child))
        join_key_names.add(_BRANCH_TAG)
        renamed = self._renamed(union, join_key_names)

        # Tag each branch on the child's first bridged level (paper style:
        # ``ON (L2=1 AND ...) OR (L2=2 AND ...)``).  When reduction makes
        # children hang off different merged members, those L tags can
        # collide; fall back to a synthetic branch-ordinal column so no
        # child's rows can satisfy another child's branch.
        tags = []
        for child in unit.children:
            tag_level = min(child.level, unit.level + 1)
            tags.append((_l_name(tag_level), child.index[tag_level - 1]))
        if len(set(tags)) != len(tags):
            tags = [(_BRANCH_TAG, i) for i in range(len(unit.children))]

        branches = []
        for child, (tag_column, tag_value) in zip(unit.children, tags):
            equalities = [
                (stv.name, _join_key(stv.name))
                for stv in unit.shared_args(child)
            ]
            branches.append(
                JoinBranch(
                    equalities=tuple(equalities),
                    tag_column=tag_column if tag_column != _BRANCH_TAG
                    else _join_key(_BRANCH_TAG),
                    tag_value=tag_value,
                )
            )
        join = self._op(LeftOuterJoin(base, renamed, branches))

        return self._op(Project(join, own_items + [
            self._item(c.name) for c in renamed.columns()
            if not c.name.startswith(_JOIN_PREFIX)
        ]))

    # -- outer-union style ([9]) ------------------------------------------------------

    def _outer_union_plan(self, root):
        """One branch per unit: the chain of joins along the path from the
        subtree root, inner for ``1``/``+`` labels, outer otherwise."""
        branches = []
        for unit in root.walk():
            branches.append(self._path_query(root, unit))
        if len(branches) == 1:
            return branches[0]
        return self._op(OuterUnion(branches))

    def _path_query(self, root, terminal):
        path = self._path_to(root, terminal)
        plan = self._tagged_base(path[0], None)
        for parent, child in zip(path, path[1:]):
            child_base = self._tagged_base(child, parent.level)
            shared = parent.shared_args(child)
            renamed = self._renamed(child_base, {s.name for s in shared})
            equalities = [(s.name, _join_key(s.name)) for s in shared]
            label = child.representative.label
            if label in ("1", "+"):
                joined = self._op(InnerJoin(plan, renamed, equalities))
            else:
                joined = self._op(LeftOuterJoin(
                    plan, renamed, [JoinBranch(tuple(equalities))]
                ))
            out_items = [
                self._item(c.name)
                for c in joined.columns()
                if not c.name.startswith(_JOIN_PREFIX)
            ]
            plan = self._op(Project(joined, out_items))
        return plan

    def _tagged_base(self, unit, parent_level):
        base = self._node_query(unit)
        items = self._l_constants(unit, parent_level)
        items.extend(self._item(s.name) for s in unit.args)
        return self._op(Project(base, items))

    def _l_constants(self, unit, parent_level):
        """The L tag constants this unit contributes: its own level plus
        any levels bridging the gap to the parent unit's representative."""
        start = unit.level if parent_level is None else parent_level + 1
        return [
            self._constant(_l_name(level), unit.index[level - 1])
            for level in range(start, unit.level + 1)
        ]

    @staticmethod
    def _path_to(root, terminal):
        def search(unit, acc):
            acc.append(unit)
            if unit is terminal:
                return True
            for child in unit.children:
                if search(child, acc):
                    return True
            acc.pop()
            return False

        path = []
        if not search(root, path):
            raise PlanError(f"{terminal} not reachable from {root}")
        return path


def rule_to_algebra(rule, schema):
    """Translate one datalog rule into algebra: joins of the body atoms in
    rule (scope) order, the rule's filters, and a DISTINCT projection onto
    the head.

    Folding atoms strictly in scope order matters: a child rule's body
    extends its parent's, so the parent's join chain is a structural prefix
    of the child's and the engine's common-subexpression sharing evaluates
    it only once per combined query.
    """
    if not rule.atoms:
        raise PlanError("rule has an empty body")
    scans = {alias: Scan(schema.table(table), alias)
             for table, alias in rule.atoms}
    pending_eqs = [tuple(e) for e in rule.equalities]
    order = [alias for _, alias in rule.atoms]
    plan = scans[order[0]]
    joined = {order[0]}
    for alias in order[1:]:
        eqs = []
        for left, right in pending_eqs:
            left_alias = left.split(".", 1)[0]
            right_alias = right.split(".", 1)[0]
            if left_alias in joined and right_alias == alias:
                eqs.append((left, right))
            elif right_alias in joined and left_alias == alias:
                eqs.append((right, left))
        # An atom with no connecting equality joins as a cartesian product
        # (legal, rare).
        plan = InnerJoin(plan, scans[alias], eqs)
        joined.add(alias)
        for eq in eqs:
            _discard_eq(pending_eqs, eq)
    # Leftover equalities (join cycles) become residual filters.
    residual = [
        Comparison("=", ColumnRef(l), ColumnRef(r)) for l, r in pending_eqs
    ]
    for ref, op, value in rule.filters:
        if isinstance(value, tuple) and value and value[0] == "col":
            residual.append(Comparison(op, ColumnRef(ref), ColumnRef(value[1])))
        else:
            literal = value.value if hasattr(value, "value") else value
            residual.append(Comparison(op, ColumnRef(ref), Literal(literal)))
    if residual:
        plan = Filter(plan, And.of(residual))
    items = [ProjectItem(ColumnRef(ref), stv.name) for stv, ref in rule.head]
    return Distinct(Project(plan, items))


def _l_name(level):
    return sys.intern(f"L{level}")


def _join_key(name):
    """``name`` renamed apart as a join's right input (one string each)."""
    return sys.intern(_JOIN_PREFIX + name)


def _discard_eq(pending, eq):
    left, right = eq
    for candidate in list(pending):
        if set(candidate) == {left, right}:
            pending.remove(candidate)
