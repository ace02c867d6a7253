"""Composition of an XML-QL query with a virtual RXL view.

The pattern tree is aligned with the view tree by tag (each pattern element
must match exactly one view-tree node among its parent match's children);
text variables bind to the matched nodes' displayed columns.  The composed
query is the *conjunction of the matched nodes' datalog rules* — their
shared body atoms provide the correlation, exactly as in view-tree
reduction — with the pattern's literal matches and the user's conditions
added to its ``where`` list.  A literal match compares the column's typed
value, the one whose XML text is the literal (``"7"`` is ``7`` on an
INTEGER column); where no value is written that way, it matches nothing.
A condition's string literal is typed the same way (``$d < "1998-03-01"``
compares dates), a number stands for itself on a numeric column, and a
literal the column's type does not write raises
:class:`~repro.common.errors.QueryError`.

The result is itself an RXL view, whose construct clause is the query's
template: it runs through the same pipeline as any view (planning, SQL
generation, tagging, caches) and reads only what the pattern touches,
usually one small SQL query, instead of the whole view: the paper's Sec. 7
virtual-view scenario.

Every template element gets an explicit Skolem term over pattern
variables.  The root's is every pattern variable, in pattern order (one
root element per distinct binding, in binding order), unless the template
names one (``<s ID=S($s)>``); a nested element's is its parent's, then the
variables it names or, without ``ID=``, the ones used inside it.  An
element's own displayed variables are always in its term.  So
``<s ID=S($s)><name>$s</name><p>$p</p></s>`` writes one ``<s>`` per
``$s``, grouping its ``<p>`` children.
"""

import datetime
from decimal import Decimal

from repro.common.errors import PlanError, QueryError
from repro.core.reduction import _combine_rules
from repro.core.viewtree import Stv
from repro.relational.types import SqlType
from repro.xmlgen.serializer import format_value
from repro.xmlql.ast import ConstructNode


def compose(query, tree):
    """Compose ``query`` (an :class:`~repro.xmlql.ast.XmlQlQuery`) with the
    view ``tree``; returns the RXL text of the composed view."""
    bindings = {}         # var -> Stv
    literal_filters = []  # (Stv, value)
    matched = set()
    _align(query.pattern, _match_root(query.pattern, tree), matched,
           bindings, literal_filters)
    rule = _combine_rules(sorted(matched, key=lambda n: n.index))
    ref_of = dict(rule.head)

    where = [f"${left} = ${right}" for left, right in rule.equalities]
    for ref, op, value in rule.filters:
        if isinstance(value, tuple):  # ("col", alias.field)
            where.append(f"${ref} {op} ${value[1]}")
        else:
            where.append(f"${ref} {op} {_literal(value.value)}")
    for stv, text in literal_filters:
        ref = ref_of[stv]
        value = _typed_literal(text, stv.sql_type)
        where.append(f"${ref} != ${ref}" if value is None
                     else f"${ref} = {_literal(value)}")
    for condition in query.conditions:
        stv = bindings.get(condition.var)
        if stv is None:
            raise PlanError(
                f"condition on unbound variable ${condition.var}"
            )
        value = condition.value
        value = (_typed_literal(value, stv.sql_type) if isinstance(value, str)
                 else value if stv.sql_type in _NUMERIC else None)
        if value is None:
            raise QueryError(
                f"${condition.var} {condition.op} {condition.value!r}: no "
                f"{stv.sql_type.value} value is written that way"
            )
        where.append(f"${ref_of[stv]} {condition.op} {_literal(value)}")
    for var in query.construct.variables():
        if var not in bindings:
            raise PlanError(f"construct uses unbound variable ${var}")

    # Each bound column ranked by its variable's first place in the pattern.
    order = {}
    for var in query.pattern.variables():
        order.setdefault(ref_of[bindings[var]], len(order))
    if not order:
        raise PlanError("the pattern binds no variables")
    var_ref = {var: ref_of[stv] for var, stv in bindings.items()}

    def element(node, path=(1,), inherited=()):
        """Template ``node`` at ``path`` as an RXL element, under a parent
        whose Skolem term is ``inherited``."""
        if node.skolem is not None:
            name, named = node.skolem
        else:
            name = "_Q" + "_".join(map(str, path))
            named = var_ref if path == (1,) else node.variables()
        own = [c[1] for c in node.contents if isinstance(c, tuple)]
        refs = set(inherited).union(var_ref[v] for v in (*named, *own))
        term = tuple(sorted(refs, key=order.__getitem__))
        parts = [f"<{node.tag} ID={name}("
                 + ", ".join(f"${ref}" for ref in term) + ")>"]
        children = 0
        for content in node.contents:
            if isinstance(content, ConstructNode):
                children += 1
                parts.append(element(content, path + (children,), term))
            elif isinstance(content, tuple):
                parts.append(f"${var_ref[content[1]]}")
            else:
                parts.append(_literal(content))
        return " ".join(parts) + f" </{node.tag}>"

    froms = ", ".join(f"{table} ${alias}" for table, alias in rule.atoms)
    text = f"from {froms}\n"
    if where:
        text += "where " + "\n  and ".join(where) + "\n"
    return text + "construct " + element(query.construct)


def _literal(value):
    """``value`` as an RXL literal (a number positional: the lexer reads no
    exponent)."""
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, datetime.date):
        return f'DATE "{value.isoformat()}"'
    return format(Decimal(repr(value)), "f")


_NUMERIC = (SqlType.INTEGER, SqlType.DECIMAL)

#: How a pattern literal reads as a value of a column that is not text.
_PARSE = {
    SqlType.INTEGER: int,
    SqlType.DECIMAL: float,
    SqlType.DATE: datetime.date.fromisoformat,
}


def _typed_literal(text, sql_type):
    """The value of ``sql_type`` whose character data is ``text`` — the
    element matches exactly where its text equals the literal — or None
    when the type writes no value that way (``"07"`` on an INTEGER
    column, ``"7"`` on a DECIMAL one, which writes ``7.00``)."""
    parse = _PARSE.get(sql_type)
    if parse is None:
        return text
    try:
        value = parse(text)
    except ValueError:
        return None
    if sql_type.accepts(value) and format_value(value) == text:
        return value
    return None


def _match_root(pattern, tree):
    """The pattern root may match any view-tree node with its tag (so a
    user can query for <part> fragments directly)."""
    candidates = [node for node in tree.nodes if node.tag == pattern.tag]
    if not candidates:
        raise PlanError(f"the view has no <{pattern.tag}> element")
    if len(candidates) > 1:
        raise PlanError(
            f"ambiguous pattern root <{pattern.tag}>: matches "
            + ", ".join(n.sfi for n in candidates)
        )
    return candidates[0]


def _align(pattern, node, matched, bindings, literal_filters):
    matched.add(node)
    if pattern.text_var is not None or pattern.text_literal is not None:
        stv = _content_stv(node)
        if pattern.text_var is not None:
            existing = bindings.get(pattern.text_var)
            if existing is not None and existing is not stv:
                raise PlanError(
                    f"variable ${pattern.text_var} bound at two different "
                    "elements"
                )
            bindings[pattern.text_var] = stv
        else:
            literal_filters.append((stv, pattern.text_literal))
    for child_pattern in pattern.children:
        child_nodes = [
            c for c in node.children if c.tag == child_pattern.tag
        ]
        if not child_nodes:
            raise PlanError(
                f"<{node.tag}> has no <{child_pattern.tag}> child in the view"
            )
        if len(child_nodes) > 1:
            raise PlanError(
                f"ambiguous child <{child_pattern.tag}> under <{node.tag}>"
            )
        _align(child_pattern, child_nodes[0], matched, bindings,
               literal_filters)


def _content_stv(node):
    content_stvs = [c for c in node.contents if isinstance(c, Stv)]
    if len(content_stvs) != 1:
        raise PlanError(
            f"<{node.tag}> does not carry exactly one text value; cannot "
            "bind a variable to it"
        )
    return content_stvs[0]
