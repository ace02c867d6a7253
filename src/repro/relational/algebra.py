"""Relational-algebra IR for the generated SQL queries.

The planner (Sec. 3.4) builds plans from exactly the constructs the paper's
SQL generator needs: scans, filters, projections (with constant columns for
the ``L`` Skolem-function-index tags), DISTINCT, inner joins, *tagged* left
outer joins (the ``on (L2=1 and ...) or (L2=2 and ...)`` form of the unified
outer-join query), outer unions (union of union-incompatible schemas padded
with NULLs), and sorts with NULLS FIRST.

Every operator reports its output columns as :class:`ColumnInfo` records
that carry a type and, where known, the base-table column they descend from;
the estimator uses that provenance for distinct-count estimates.
"""

from dataclasses import dataclass

from repro.common.errors import QueryError
from repro.relational.types import SqlType, quote_sql_ident, sql_literal


# ---------------------------------------------------------------------------
# Column metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ColumnInfo:
    """Metadata for one output column of an operator.

    ``source`` is ``(table_name, column_name)`` when the column descends
    unchanged from a base table, else ``None``.
    """

    name: str
    sql_type: SqlType
    source: tuple = None


def _names(columns):
    return [c.name for c in columns]


def _check_unique(columns, context):
    names = _names(columns)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise QueryError(f"{context}: duplicate output columns {dupes}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    """Reference to an input column by name."""

    name: str

    def to_sql(self):
        return quote_sql_ident(self.name.replace("$", "_"))

    def fingerprint(self):
        return ("col", self.name)


@dataclass(frozen=True)
class Literal:
    """A constant.  A projected constant needs a ``sql_type`` (here or on
    its :class:`ProjectItem`) so the output column has a type."""

    value: object
    sql_type: SqlType = None

    def to_sql(self):
        return sql_literal(self.value)

    def fingerprint(self):
        return ("lit", self.value)


_COMPARISON_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison:
    """``left op right`` with SQL three-valued logic: NULL operands make the
    predicate false (never-match), which is all the generator needs."""

    op: str
    left: object
    right: object

    def __post_init__(self):
        if self.op not in _COMPARISON_OPS:
            raise QueryError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, row, positions):
        left = _eval_expr(self.left, row, positions)
        right = _eval_expr(self.right, row, positions)
        if left is None or right is None:
            return False
        return _COMPARISON_OPS[self.op](left, right)

    def referenced_columns(self):
        refs = []
        for side in (self.left, self.right):
            if isinstance(side, ColumnRef):
                refs.append(side.name)
        return refs

    def to_sql(self):
        op = "<>" if self.op == "!=" else self.op
        return f"{self.left.to_sql()} {op} {self.right.to_sql()}"

    def fingerprint(self):
        return ("cmp", self.op, self.left.fingerprint(), self.right.fingerprint())


@dataclass(frozen=True)
class And:
    """Conjunction of comparisons."""

    conjuncts: tuple

    @classmethod
    def of(cls, conjuncts):
        return cls(tuple(conjuncts))

    def evaluate(self, row, positions):
        return all(c.evaluate(row, positions) for c in self.conjuncts)

    def referenced_columns(self):
        refs = []
        for conjunct in self.conjuncts:
            refs.extend(conjunct.referenced_columns())
        return refs

    def to_sql(self):
        if not self.conjuncts:
            return "TRUE"
        return " AND ".join(c.to_sql() for c in self.conjuncts)

    def fingerprint(self):
        return ("and",) + tuple(c.fingerprint() for c in self.conjuncts)


def _eval_expr(expr, row, positions):
    if isinstance(expr, ColumnRef):
        try:
            return row[positions[expr.name]]
        except KeyError:
            raise QueryError(f"unknown column {expr.name!r} in predicate") from None
    if isinstance(expr, Literal):
        return expr.value
    raise QueryError(f"unsupported expression {expr!r}")


# Python spellings of the SQL comparison operators, for predicate
# compilation.  Only these whitelisted tokens ever reach the generated
# source; operands are the source texts of columns and the parameter
# names of literals, never a value interpolated into the text.
_PY_COMPARISON_OPS = {
    "=": "==",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def _comparison_source(comparison, columns, src):
    """Python source for one :class:`Comparison`.

    NULL guards reproduce :meth:`Comparison.evaluate`'s three-valued
    logic: a NULL operand makes the predicate false, for ``!=`` too.
    """
    if not isinstance(comparison, Comparison):
        raise QueryError(f"cannot compile conjunct {comparison!r}")

    def operand(side):
        if isinstance(side, ColumnRef):
            try:
                return columns[side.name], True
            except KeyError:
                raise QueryError(
                    f"unknown column {side.name!r} in predicate"
                ) from None
        if isinstance(side, Literal):
            if side.value is None:
                return None, False
            return src.arg(side.value), False
        raise QueryError(f"unsupported expression {side!r}")

    left, left_is_col = operand(comparison.left)
    right, right_is_col = operand(comparison.right)
    if left is None or right is None:
        return "False"  # a NULL literal operand can never match
    parts = []
    if left_is_col:
        parts.append(f"{left} is not None")
    if right_is_col:
        parts.append(f"{right} is not None")
    parts.append(f"{left} {_PY_COMPARISON_OPS[comparison.op]} {right}")
    return "(" + " and ".join(parts) + ")"


def predicate_source(predicate, columns, src):
    """``predicate`` as a Python boolean expression: ``columns`` maps each
    column name to the source text of its value, and every literal is an
    argument of ``src`` (a :class:`~repro.relational.codegen.Source`).
    Nested conjunctions are flattened.  Raises :class:`QueryError` for any
    other shape — a conjunct that is no :class:`Comparison`, an operand
    that is neither a column nor a literal — when the plan is compiled,
    whether or not it has rows to filter.
    """
    if not isinstance(predicate, And):
        return _comparison_source(predicate, columns, src)
    if not predicate.conjuncts:
        return "True"
    return " and ".join(predicate_source(c, columns, src)
                        for c in predicate.conjuncts)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class Operator:
    """Base class: every operator exposes ``columns`` (tuple of ColumnInfo),
    ``children``, and a structural ``fingerprint`` for estimate caching."""

    # What an operator keeps once worked out (plans are immutable): its
    # fingerprint, the tables it reads (dependencies.plan_tables), its
    # outer-join depth, its lowerings (pipeline.lower) and its columns'
    # facts (pipeline.column_facts).  Slots, as in every operator: a
    # view's plans hold thousands for the process.
    __slots__ = ("_fp", "_tables", "_oj_depth", "_units", "_program",
                 "_facts")

    @property
    def children(self):
        return ()

    def column_names(self):
        return tuple(c.name for c in self.columns())

    def positions(self):
        """Map column name -> index (not kept: read once per lowering)."""
        return {c.name: i for i, c in enumerate(self.columns())}

    def fingerprint(self):
        """Structural fingerprint (a hashable tuple); cached per instance.

        Plans are immutable once built, and fingerprints key the engine's
        common-subexpression memo, the result cache, and the compiled-
        kernel cache on every execution — caching avoids rebuilding the
        recursive tuple each time.
        """
        cached = getattr(self, "_fp", None)
        if cached is None:
            cached = self._fingerprint()
            self._fp = cached
        return cached


class Scan(Operator):
    """Full scan of a base table under an alias.  Output columns are named
    ``alias.column``."""

    __slots__ = ("table_schema", "alias", "_cols")

    def __init__(self, table_schema, alias):
        self.table_schema = table_schema
        self.alias = alias
        self._cols = tuple(
            ColumnInfo(
                name=f"{alias}.{c.name}",
                sql_type=c.sql_type,
                source=(table_schema.name, c.name),
            )
            for c in table_schema.columns
        )

    def columns(self):
        return self._cols

    def _fingerprint(self):
        return ("scan", self.table_schema.name, self.alias)


class Filter(Operator):
    """Row filter with an :class:`And`/:class:`Comparison` predicate."""

    __slots__ = ("child", "predicate")

    def __init__(self, child, predicate):
        self.child = child
        self.predicate = predicate
        known = set(child.column_names())
        for name in predicate.referenced_columns():
            if name not in known:
                raise QueryError(f"filter references unknown column {name!r}")

    def columns(self):
        return self.child.columns()

    @property
    def children(self):
        return (self.child,)

    def _fingerprint(self):
        return ("filter", self.predicate.fingerprint(), self.child.fingerprint())


@dataclass(frozen=True)
class ProjectItem:
    """One select-list item: an expression and its output name."""

    expr: object
    name: str
    sql_type: SqlType = None

    def fingerprint(self):
        """``(name, expr fingerprint)``, kept: generators share items."""
        cached = getattr(self, "_fp", None)
        if cached is None:
            cached = (self.name, self.expr.fingerprint())
            object.__setattr__(self, "_fp", cached)
        return cached


def ConstantColumn(name, value, sql_type=None):
    """Sugar: a :class:`ProjectItem` producing a constant column, used for
    the ``L`` tag columns (``select 1 as L2, ...``)."""
    return ProjectItem(Literal(value, sql_type), name, sql_type)


class Project(Operator):
    """Projection / renaming / constant introduction."""

    __slots__ = ("child", "items", "_cols")

    def __init__(self, child, items):
        self.child = child
        self.items = tuple(items)
        child_cols = {c.name: c for c in child.columns()}
        out = []
        for item in self.items:
            expr = item.expr
            if isinstance(expr, ColumnRef):
                try:
                    base = child_cols[expr.name]
                except KeyError:
                    raise QueryError(
                        f"projection references unknown column {expr.name!r}"
                    ) from None
                if item.name == base.name and item.sql_type in (None, base.sql_type):
                    out.append(base)    # passed through: the child's own
                    continue
                out.append(
                    ColumnInfo(
                        name=item.name,
                        sql_type=item.sql_type or base.sql_type,
                        source=base.source,
                    )
                )
            elif isinstance(expr, Literal):
                sql_type = item.sql_type or expr.sql_type
                if sql_type is None:
                    raise QueryError(
                        f"constant column {item.name!r} needs a sql_type")
                out.append(ColumnInfo(name=item.name, sql_type=sql_type,
                                      source=None))
            else:
                raise QueryError(f"unsupported projection expression {expr!r}")
        self._cols = tuple(out)
        _check_unique(self._cols, "Project")

    def columns(self):
        return self._cols

    @property
    def children(self):
        return (self.child,)

    def _fingerprint(self):
        return (
            "project",
            tuple(item.fingerprint() for item in self.items),
            self.child.fingerprint(),
        )


class Distinct(Operator):
    """Duplicate elimination (datalog set semantics for node queries)."""

    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def columns(self):
        return self.child.columns()

    @property
    def children(self):
        return (self.child,)

    def _fingerprint(self):
        return ("distinct", self.child.fingerprint())


class InnerJoin(Operator):
    """Equi-join.  ``equalities`` is a list of (left_column, right_column)."""

    __slots__ = ("left", "right", "equalities", "_cols")

    def __init__(self, left, right, equalities):
        self.left = left
        self.right = right
        self.equalities = tuple((l, r) for l, r in equalities)
        left_names = set(left.column_names())
        right_names = set(right.column_names())
        for l, r in self.equalities:
            if l not in left_names:
                raise QueryError(f"join: {l!r} not in left input")
            if r not in right_names:
                raise QueryError(f"join: {r!r} not in right input")
        self._cols = left.columns() + right.columns()
        _check_unique(self._cols, "InnerJoin")

    def columns(self):
        return self._cols

    @property
    def children(self):
        return (self.left, self.right)

    def _fingerprint(self):
        return (
            "join",
            self.equalities,
            self.left.fingerprint(),
            self.right.fingerprint(),
        )


@dataclass(frozen=True, slots=True)
class JoinBranch:
    """One disjunct of a tagged outer join: the right row participates in
    this branch when its ``tag_column`` equals ``tag_value`` (both ``None``
    for an untagged join), and matches a left row when all ``equalities``
    (left_column, right_column) hold."""

    equalities: tuple
    tag_column: str = None
    tag_value: object = None


class LeftOuterJoin(Operator):
    """Left outer join, possibly with the paper's tagged-disjunction ON
    clause ``(L2=1 AND ...) OR (L2=2 AND ...)`` (Sec. 3.4)."""

    __slots__ = ("left", "right", "branches", "_cols")

    def __init__(self, left, right, branches):
        self.left = left
        self.right = right
        self.branches = tuple(branches)
        if not self.branches:
            raise QueryError("outer join requires at least one branch")
        left_names = set(left.column_names())
        right_names = set(right.column_names())
        for branch in self.branches:
            for l, r in branch.equalities:
                if l not in left_names:
                    raise QueryError(f"outer join: {l!r} not in left input")
                if r not in right_names:
                    raise QueryError(f"outer join: {r!r} not in right input")
            if branch.tag_column is not None and branch.tag_column not in right_names:
                raise QueryError(
                    f"outer join: tag column {branch.tag_column!r} not in right input"
                )
        self._cols = left.columns() + right.columns()
        _check_unique(self._cols, "LeftOuterJoin")

    def columns(self):
        return self._cols

    @property
    def children(self):
        return (self.left, self.right)

    def _fingerprint(self):
        return (
            "louter",
            tuple(
                (b.equalities, b.tag_column, b.tag_value) for b in self.branches
            ),
            self.left.fingerprint(),
            self.right.fingerprint(),
        )


class OuterUnion(Operator):
    """Outer union: schema is the union of the children's columns (first
    appearance order); each child's missing columns are NULL-padded."""

    __slots__ = ("inputs", "distinct", "_cols")

    def __init__(self, inputs, distinct=False):
        self.inputs = tuple(inputs)
        self.distinct = distinct
        if not self.inputs:
            raise QueryError("outer union requires at least one input")
        seen = {}
        order = []
        for child in self.inputs:
            for col in child.columns():
                if col.name not in seen:
                    seen[col.name] = col
                    order.append(col)
                elif seen[col.name].sql_type != col.sql_type:
                    raise QueryError(
                        f"outer union: column {col.name!r} has conflicting types"
                    )
        self._cols = tuple(order)

    def columns(self):
        return self._cols

    @property
    def children(self):
        return self.inputs

    def _fingerprint(self):
        return ("ounion", self.distinct) + tuple(
            c.fingerprint() for c in self.inputs
        )


class Sort(Operator):
    """Sort by the named columns, NULLS FIRST (see :mod:`repro.common.ordering`)."""

    __slots__ = ("child", "keys")

    def __init__(self, child, keys):
        self.child = child
        self.keys = tuple(keys)
        known = set(child.column_names())
        for key in self.keys:
            if key not in known:
                raise QueryError(f"sort key {key!r} not in input")

    def columns(self):
        return self.child.columns()

    @property
    def children(self):
        return (self.child,)

    def _fingerprint(self):
        return ("sort", self.keys, self.child.fingerprint())


# ---------------------------------------------------------------------------
# Plan inspection helpers
# ---------------------------------------------------------------------------


def walk(plan):
    """Yield every operator in the plan, root first."""
    yield plan
    for child in plan.children:
        yield from walk(child)


def count_operators(plan, kind):
    """How many operators of ``kind`` appear in the plan."""
    return sum(1 for op in walk(plan) if isinstance(op, kind))


def shared_fingerprints(plan):
    """Fingerprints occurring more than once in ``plan``: the sub-plans the
    optimizer's common-subexpression sharing evaluates once and re-reads
    (at ``rescan`` cost), in both engines."""
    seen, shared = set(), set()
    stack = [plan]
    while stack:
        op = stack.pop()
        fp = op.fingerprint()
        if fp in seen:
            shared.add(fp)
        else:
            seen.add(fp)
        stack.extend(op.children)
    return frozenset(shared)


def outer_join_nesting(plan):
    """Maximum number of LeftOuterJoin operators on any root-to-leaf path.

    The cost model uses this as the 'optimizer stress' signal: the paper's
    Query 1 plans nest outer joins (chained ``*`` edges) while Query 2's are
    parallel, and only Query 1 plans timed out.  Kept per operator, like
    the fingerprint: plans are immutable.
    """
    return _outer_join_depth(plan)


def _outer_join_depth(op):
    # Module-level, not a closure: a recursive closure is a function <->
    # cell reference cycle, left to the cyclic collector on every call.
    depth = getattr(op, "_oj_depth", None)
    if depth is None:
        below = max((_outer_join_depth(c) for c in op.children), default=0)
        depth = op._oj_depth = below + isinstance(op, LeftOuterJoin)
    return depth
