"""View-tree construction (Sec. 3.1).

An RXL view query is represented by a *view tree*: a global XML template
whose every node carries

* a **Skolem function** that uniquely identifies the template node (user
  supplied via ``ID=F(...)`` or introduced automatically, in which case its
  arguments are the keys of all in-scope tuple variables plus the variables
  contained in the element),
* a **Skolem-function index** like ``S1.4.2`` — the root is ``S1`` and the
  i-th child of a node appends ``.i`` — assigned in breadth-first order,
* **Skolem-term variables** with indices ``(p, q)``: ``p`` is the level of
  the node closest to the root that has the variable in its Skolem term,
  ``q`` a per-level ordinal making ``(p, q)`` unique, and
* one (or, with user Skolem functions that fuse elements, several)
  non-recursive **datalog rule(s)** whose body is the conjunction of all
  ``from`` and ``where`` clauses in scope.

Variables related by equality join conditions are unified (the paper writes
``$ps.suppkey`` and ``$s.suppkey`` as the single column ``suppkey``); the
unifier is a union-find over ``alias.field`` pairs.
"""

from dataclasses import dataclass, field

from repro.common.errors import PlanError, RxlScopeError
from repro.relational.dependencies import FunctionalDependency, attribute_closure
from repro.rxl.ast import RxlBlock, RxlElement, TextExpr, TextLiteral
from repro.rxl.validate import validate_rxl


@dataclass(frozen=True)
class Stv:
    """A Skolem-term variable with its ``(p, q)`` index.

    The SQL-visible column name combines the index and the original field
    name for readability: ``v1_1_suppkey`` is the paper's ``suppkey(1,1)``.
    It is derived once at construction — decoding and SQL generation read
    it per column per stream.
    """

    level: int
    ordinal: int
    field_hint: str
    sql_type: object
    source: tuple  # (table, column) of the representative occurrence
    name: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "name", f"v{self.level}_{self.ordinal}_{self.field_hint}"
        )

    def __repr__(self):
        return f"{self.field_hint}({self.level},{self.ordinal})"


@dataclass(frozen=True)
class NodeRule:
    """One datalog rule: ``Skolem(args) :- atoms, conditions``.

    ``atoms`` are ``(table_name, alias)`` pairs; ``equalities`` are
    ``(alias.field, alias.field)`` join conditions; ``filters`` are
    ``(alias.field, op, literal)``.  ``head`` maps each argument
    :class:`Stv` to the representative ``alias.field`` occurrence used when
    projecting.
    """

    atoms: tuple
    equalities: tuple
    filters: tuple
    head: tuple  # of (Stv, "alias.field")


class ViewTreeNode:
    """One node of the view tree — one element template."""

    def __init__(self, tag, skolem_name=None):
        self.tag = tag
        self.skolem_name = skolem_name  # explicit user Skolem name, if any
        self.index = None               # tuple of ints, e.g. (1, 4, 2)
        self.args = ()                  # tuple of Stv (the Skolem term)
        self.key_args = ()              # subset of args: scope-key classes
        self.contents = []              # Stv | str (display order)
        self.rules = []                 # list of NodeRule
        self.parent = None
        self.children = []
        self.label = None               # '1' | '?' | '+' | '*' on edge to parent

    # -- identity and presentation -------------------------------------------

    @property
    def sfi(self):
        """The Skolem-function index string, e.g. ``S1.4.2``."""
        return "S" + ".".join(str(i) for i in self.index)

    @property
    def level(self):
        return len(self.index)

    def is_ancestor_of(self, other):
        return (
            len(self.index) < len(other.index)
            and other.index[: len(self.index)] == self.index
        )


class ViewTree:
    """The complete view tree plus global variable bookkeeping."""

    def __init__(self, root, nodes_by_index, stvs):
        self.root = root
        self._by_index = nodes_by_index
        self.stvs = stvs  # all Stv, ordered by (level, ordinal)

    def node(self, index):
        try:
            return self._by_index[tuple(index)]
        except KeyError:
            raise PlanError(f"no view-tree node with index {index}") from None

    @property
    def nodes(self):
        """All nodes in breadth-first (index) order."""
        return tuple(self._by_index[i] for i in sorted(self._by_index))

    @property
    def edges(self):
        """All (parent, child) pairs, in child-index order."""
        return tuple(
            (node.parent, node) for node in self.nodes if node.parent is not None
        )

    def stvs_at_level(self, level):
        return tuple(v for v in self.stvs if v.level == level)

    def max_depth(self):
        return max(node.level for node in self.nodes)

    def render(self, show_args=True):
        """Draw the view tree as text, Fig. 6-style: one node per line with
        its edge label, tag, and (optionally) Skolem-term arguments."""
        lines = []

        def draw(node, prefix, is_last):
            connector = "" if node.parent is None else (
                "└─" if is_last else "├─"
            )
            label = f"({node.label}) " if node.label else ""
            args = ""
            if show_args:
                args = "(" + ", ".join(repr(a) for a in node.args) + ")"
            lines.append(
                f"{prefix}{connector}{label}{node.sfi} <{node.tag}> {args}"
            )
            child_prefix = prefix if node.parent is None else (
                prefix + ("  " if is_last else "│ ")
            )
            for i, child in enumerate(node.children):
                draw(child, child_prefix, i == len(node.children) - 1)

        draw(self.root, "", True)
        return "\n".join(lines)

    def __repr__(self):
        return f"ViewTree({len(self.nodes)} nodes, {len(self.edges)} edges)"


def build_view_tree(query, schema, validate=True, simplify_args=False):
    """Build the view tree for a parsed RXL query.

    ``simplify_args`` applies the paper's Sec. 3.1 simplification: Skolem
    arguments functionally determined by the remaining arguments (via
    declared keys) are dropped — e.g. ``S1.1(suppkey, nationkey, name)``
    becomes ``S1.1(suppkey, name)`` when ``name`` is unique in ``Nation``.
    Off by default: it changes relation schemas, never results.
    """
    if validate:
        validate_rxl(query, schema)
    builder = _Builder(schema, simplify_args=simplify_args)
    return builder.build(query)


# ---------------------------------------------------------------------------
# Builder internals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scope:
    """The accumulated from/where context along a block chain."""

    atoms: tuple       # (table, alias)
    equalities: tuple  # (alias.field, alias.field)
    filters: tuple     # (alias.field, op, value)
    var_alias: dict    # RXL var name -> alias (immutable treated)


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, item):
        parent = self.parent.setdefault(item, item)
        if parent != item:
            root = self.find(parent)
            self.parent[item] = root
            return root
        return item

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


class _Builder:
    def __init__(self, schema, simplify_args=False):
        self.schema = schema
        self.simplify_args = simplify_args
        self.alias_of = {}
        self.alias_table = {}      # alias -> table name
        self.unifier = _UnionFind()
        self.stv_of_class = {}     # class representative -> Stv
        self.next_ordinal = {}     # level -> next q
        self.explicit_nodes = {}   # skolem name -> ViewTreeNode
        self.node_scope = {}       # id(node) -> _Scope
        self.node_contents_refs = {}  # id(node) -> list of Stv-pending refs

    # -- entry ---------------------------------------------------------------

    def build(self, query):
        if len(query.construct) != 1:
            raise PlanError(
                "the top-level construct clause must have exactly one root "
                f"element (found {len(query.construct)})"
            )
        scope = self._extend_scope(
            _Scope((), (), (), {}), query
        )
        root = self._build_element(query.construct[0], scope)
        self._assign_indices(root)
        nodes_by_index = {node.index: node for node in self._walk(root)}
        stvs = self._assign_variables(root)
        self._build_rules(root)
        tree = ViewTree(root, nodes_by_index, stvs)
        return tree

    def _walk(self, node):
        yield node
        for child in node.children:
            yield from self._walk(child)

    # -- scope handling -------------------------------------------------------

    def _extend_scope(self, scope, query):
        atoms = list(scope.atoms)
        var_alias = dict(scope.var_alias)
        for decl in query.froms:
            alias = self._fresh_alias(decl.var)
            var_alias[decl.var] = alias
            self.alias_table[alias] = decl.table
            atoms.append((decl.table, alias))
        equalities = list(scope.equalities)
        filters = list(scope.filters)
        for cond in query.conditions:
            left = self._resolve_operand(cond.left, var_alias)
            right = self._resolve_operand(cond.right, var_alias)
            left_is_col = isinstance(left, str)
            right_is_col = isinstance(right, str)
            if cond.op == "=" and left_is_col and right_is_col:
                equalities.append((left, right))
                self.unifier.union(left, right)
            elif left_is_col and not right_is_col:
                filters.append((left, cond.op, right))
            elif right_is_col and not left_is_col:
                filters.append((right, _flip(cond.op), left))
            else:
                # column-to-column non-equality: keep as a filter pair by
                # encoding the right column reference.
                filters.append((left, cond.op, ("col", right)))
        return _Scope(tuple(atoms), tuple(equalities), tuple(filters), var_alias)

    def _fresh_alias(self, var):
        count = self.alias_of.get(var, 0)
        self.alias_of[var] = count + 1
        return var if count == 0 else f"{var}_{count + 1}"

    def _resolve_operand(self, operand, var_alias):
        from repro.rxl.ast import VarField, LiteralValue

        if isinstance(operand, VarField):
            alias = var_alias.get(operand.var)
            if alias is None:
                raise RxlScopeError(f"undeclared tuple variable ${operand.var}")
            return f"{alias}.{operand.field}"
        if isinstance(operand, LiteralValue):
            return operand  # not a string => literal
        raise PlanError(f"unsupported operand {operand!r}")

    # -- template construction --------------------------------------------------

    def _build_element(self, element, scope):
        node = self._node_for(element, scope)
        self.node_scope.setdefault(id(node), scope)
        refs = self.node_contents_refs.setdefault(id(node), [])
        for content in element.contents:
            if isinstance(content, TextExpr):
                alias = scope.var_alias[content.ref.var]
                refs.append(("expr", f"{alias}.{content.ref.field}"))
            elif isinstance(content, TextLiteral):
                refs.append(("text", content.text))
            elif isinstance(content, RxlElement):
                child = self._build_element(content, scope)
                self._attach(node, child)
            elif isinstance(content, RxlBlock):
                sub_scope = self._extend_scope(scope, content.query)
                for sub_element in content.query.construct:
                    child = self._build_element(sub_element, sub_scope)
                    self._attach(node, child)
        return node

    def _node_for(self, element, scope):
        if element.skolem is not None:
            existing = self.explicit_nodes.get(element.skolem.name)
            if existing is not None:
                if existing.tag != element.tag:
                    raise PlanError(
                        f"Skolem function {element.skolem.name} used for both "
                        f"<{existing.tag}> and <{element.tag}>"
                    )
                # Fused occurrence: a second rule will be added for it.
                self._record_explicit_args(existing, element, scope)
                return existing
            node = ViewTreeNode(element.tag, skolem_name=element.skolem.name)
            self.explicit_nodes[element.skolem.name] = node
            self._record_explicit_args(node, element, scope)
            return node
        return ViewTreeNode(element.tag)

    def _record_explicit_args(self, node, element, scope):
        refs = []
        for arg in element.skolem.args:
            alias = scope.var_alias[arg.var]
            refs.append(f"{alias}.{arg.field}")
        occurrences = getattr(node, "_explicit_arg_refs", [])
        if occurrences:
            # Fused occurrence: the i-th argument of every occurrence is
            # the *same* Skolem-term variable — unify them positionally so
            # one column carries the term's argument in every rule.
            first_refs, _ = occurrences[0]
            if len(first_refs) != len(refs):
                raise PlanError(
                    f"Skolem function {element.skolem.name}: occurrences "
                    "disagree on argument count"
                )
            for a, b in zip(first_refs, refs):
                self.unifier.union(a, b)
        occurrences.append((tuple(refs), scope))
        node._explicit_arg_refs = occurrences

    def _attach(self, parent, child):
        if child.parent is not None:
            if child.parent is not parent:
                raise PlanError(
                    f"Skolem function {child.skolem_name} fuses elements with "
                    "different parents; this is not a tree"
                )
            return  # fused occurrence already attached
        child.parent = parent
        parent.children.append(child)

    # -- index and variable assignment ------------------------------------------

    def _assign_indices(self, root):
        root.index = (1,)
        queue = [root]
        while queue:
            node = queue.pop(0)
            for position, child in enumerate(node.children, start=1):
                child.index = node.index + (position,)
                queue.append(child)

    def _assign_variables(self, root):
        """Assign Skolem-term variables level by level (breadth first), so
        each variable's ``p`` is the level of its closest-to-root node."""
        ordered = sorted(self._walk(root), key=lambda n: (n.level, n.index))
        for node in ordered:
            scopes = self._scopes_of(node)
            arg_refs = self._arg_refs(node, scopes)
            entries = []  # (class representative, sample ref, is_key)
            seen = set()
            for ref, is_key in arg_refs:
                rep = self.unifier.find(ref)
                if rep in seen:
                    continue
                seen.add(rep)
                entries.append((rep, ref, is_key))
            if self.simplify_args:
                entries = self._simplify_entries(node, scopes[0], entries)
            args = []
            key_args = []
            for rep, ref, is_key in entries:
                stv = self._stv_for(rep, node.level, ref)
                args.append(stv)
                if is_key:
                    key_args.append(stv)
            node.args = tuple(sorted(args, key=lambda v: (v.level, v.ordinal)))
            node.key_args = tuple(
                sorted(key_args, key=lambda v: (v.level, v.ordinal))
            )
            node.contents = self._node_contents(node)
        stvs = sorted(
            self.stv_of_class.values(), key=lambda v: (v.level, v.ordinal)
        )
        return tuple(stvs)

    def _simplify_entries(self, node, scope, entries):
        """The paper's Sec. 3.1 simplification, applied before variable
        indices are assigned: drop a key argument *introduced at this
        node's own level* of a *leaf* node when it is functionally
        determined by the remaining arguments (via declared keys/unique
        sets).  Arguments inherited from ancestors are structural — they
        position the element in the document — and are never dropped;
        neither are displayed variables; and internal nodes keep their own
        keys because descendants reference them (the paper does the same:
        Fig. 11 keeps partkey in S1.4's term, Fig. 4 drops it from the
        leaf part node)."""
        if node.children:
            return entries
        fds = self._scope_fds(scope)
        kept = list(entries)
        for entry in list(kept):
            rep, _, is_key = entry
            if not is_key:
                continue
            existing = self.stv_of_class.get(rep)
            if existing is not None and existing.level < node.level:
                continue  # inherited ancestor key
            rest = [r for (r, _, _) in kept if r != rep]
            if rep in attribute_closure(rest, fds):
                kept.remove(entry)
        return kept

    def _scopes_of(self, node):
        if hasattr(node, "_explicit_arg_refs"):
            return [scope for _, scope in node._explicit_arg_refs]
        return [self.node_scope[id(node)]]

    def _arg_refs(self, node, scopes):
        """The (alias.field, is_key) pairs forming the Skolem term."""
        if hasattr(node, "_explicit_arg_refs"):
            refs = []
            for arg_refs, _ in node._explicit_arg_refs:
                for ref in arg_refs:
                    refs.append((ref, True))
            # Displayed variables still need a column in the relation even
            # when the user's Skolem term omits them.
            for kind, value in self.node_contents_refs.get(id(node), ()):
                if kind == "expr":
                    refs.append((value, False))
            return refs
        scope = scopes[0]
        refs = []
        for table_name, alias in scope.atoms:
            table = self.schema.table(table_name)
            for key_col in table.key:
                refs.append((f"{alias}.{key_col}", True))
        for kind, value in self.node_contents_refs.get(id(node), ()):
            if kind == "expr":
                refs.append((value, False))
        return refs

    def _stv_for(self, class_rep, level, sample_ref):
        stv = self.stv_of_class.get(class_rep)
        if stv is not None:
            return stv
        ordinal = self.next_ordinal.get(level, 1)
        self.next_ordinal[level] = ordinal + 1
        alias, field = sample_ref.split(".", 1)
        table = self.schema.table(self.alias_table[alias])
        column = table.column(field)
        stv = Stv(
            level=level,
            ordinal=ordinal,
            field_hint=field,
            sql_type=column.sql_type,
            source=(table.name, field),
        )
        self.stv_of_class[class_rep] = stv
        return stv

    def _scope_fds(self, scope):
        """FDs over unified column classes derivable from keys and declared
        unique sets of the atoms in scope."""
        fds = []
        for table_name, alias in scope.atoms:
            table = self.schema.table(table_name)
            all_cols = [
                self.unifier.find(f"{alias}.{c.name}") for c in table.columns
            ]
            key_sets = [table.key]
            key_sets.extend(getattr(table, "unique_sets", ()))
            for key_set in key_sets:
                lhs = [self.unifier.find(f"{alias}.{k}") for k in key_set]
                fds.append(FunctionalDependency.of(lhs, all_cols))
        return fds

    def _node_contents(self, node):
        contents = []
        fused = hasattr(node, "_explicit_arg_refs")
        seen = set()
        for kind, value in self.node_contents_refs.get(id(node), ()):
            if kind == "expr":
                rep = self.unifier.find(value)
                stv = self.stv_of_class[rep]
                # Fused occurrences contribute the same (unified) display
                # variable once each; emit it a single time.
                if fused and stv in seen:
                    continue
                seen.add(stv)
                contents.append(stv)
            else:
                contents.append(value)
        return contents

    # -- rules -------------------------------------------------------------------

    def _build_rules(self, root):
        for node in self._walk(root):
            node.rules = []
            for scope in self._scopes_of(node):
                head = []
                for stv in node.args:
                    ref = self._representative_ref(stv, scope)
                    head.append((stv, ref))
                node.rules.append(
                    NodeRule(
                        atoms=tuple(scope.atoms),
                        equalities=tuple(scope.equalities),
                        filters=tuple(scope.filters),
                        head=tuple(head),
                    )
                )

    def _representative_ref(self, stv, scope):
        """Pick an in-scope alias.field occurrence of the variable class."""
        for rep, known in self.stv_of_class.items():
            if known is stv:
                class_rep = rep
                break
        else:
            raise PlanError(f"no class for variable {stv}")
        scope_aliases = {alias for _, alias in scope.atoms}
        # Prefer the class representative if in scope, else any member.
        candidates = [class_rep] + [
            member
            for member in self.unifier.parent
            if self.unifier.find(member) == class_rep
        ]
        for ref in candidates:
            alias = ref.split(".", 1)[0]
            if alias in scope_aliases:
                return ref
        raise PlanError(
            f"variable {stv} is not available in the scope of this rule"
        )


def _flip(op):
    return {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}[op]
