"""Generated integration kernels: sorted rows to markup, compiled.

Sec. 3.3's integration is a fixed template over a sorted outer union, so
everything about it that does not depend on the rows is resolved before
the first row arrives.  For one view tree and one stream shape this
module writes Python source into a
:class:`~repro.relational.codegen.Source`:

* a **decoder** (:func:`decoder_kernel`): per row, the memo check on each
  member's term positions and, where an instance must wait, the keyed
  deferral; it yields ``(key, node id, term)`` items in document order,
  keyed flat or, for a merge the layout allows it, compactly
  (:class:`~repro.xmlgen.streams.ComparatorLayout`);
* a **tag step** (:func:`tag_kernel`): consumes merged items and writes
  markup, with open and close markup pre-rendered per (node, depth) and
  the character data formatted by the column's SQL type;
* a **single-stream kernel** (:func:`stream_kernel`): both in one loop,
  rows to markup with no item, key or heap in between wherever the order
  table and a one-row look-ahead prove the row order is the document
  order (:meth:`StreamShape._look_ahead`) and the instance is the next
  element down; the rest of such a row, and every other row, takes the
  decoder's keyed path into the tag step, with the stack as its state.

All three keep the tagger's rules (:class:`~repro.xmlgen.tagger.XmlTagger`
is their reference): the stack is one root path, so it is held as the
node whose chain it is plus one key and one term per depth; frames match
deepest first on a nested chain, root first otherwise; a top-level close
leaves a splice mark.  The code is kept in
:data:`~repro.relational.codegen.CODE`, process-wide, under a structural
key: it holds no rows and no tree objects, so a fresh session exporting a
known shape compiles nothing.
"""

import datetime
from bisect import bisect_right
from functools import cmp_to_key
from itertools import chain
from operator import itemgetter

from repro.common.errors import PlanError
from repro.common.ordering import TYPE_TAGS
from repro.core.viewtree import Stv
from repro.relational.codegen import Source, compiled
from repro.relational.types import SqlType
from repro.xmlgen.serializer import (
    CHARACTER_DATA,
    closing,
    escape_text,
    opening,
)

#: Not a value: the memo of a member nothing was emitted for yet.
_NO = type("NoTerm", (), {"__slots__": (), "__repr__": lambda _: "NO"})()
_K0 = itemgetter(0)

#: The Python type of a column's values by SQL type, whose
#: :data:`~repro.xmlgen.serializer.CHARACTER_DATA` formatter writes its
#: text behind an exact type check (anything else takes ``escape_text``,
#: what every formatter agrees with).
_PYTHON_TYPE = {
    SqlType.INTEGER: int,
    SqlType.DECIMAL: float,
    SqlType.DATE: datetime.date,
}


class TreeShape:
    """What the kernels need of a view tree, numbered: node ids (1 up, in
    index order; 0 is the empty stack), each node's chain, and a
    structural key equal for equal trees; it holds its tag steps once
    looked up."""

    def __init__(self, tree, entries):
        self.nodes = (None, *tree.nodes)
        self.ids = {node: i for i, node in enumerate(self.nodes) if i}
        self.entries = entries
        self.key = (tuple(
            (node.index, node.tag,
             tuple((a.name, a.sql_type) for a in node.args),
             tuple(a.name for a in node.key_args),
             tuple(c if not isinstance(c, Stv) else (c.name, c.sql_type)
                   for c in node.contents))
            for node in tree.nodes), tuple(
            (kind, what if kind == "L" else what.name)
            for kind, what in entries))
        self.steps = {}

    def chain(self, node):
        """``node``'s ancestors-or-self, root first."""
        out = []
        while node is not None:
            out.append(node)
            node = node.parent
        return out[::-1]


# -- the tag step ---------------------------------------------------------


class _Tagging:
    """Emits the tagger's step for one instance as straight-line code, and
    the tables it reads: per node the chain prefix it shares with every
    other (a constant ``_A<n>[last]``) and per (last node, depth) the
    closing markup (``_CL<n>[last][depth]``)."""

    def __init__(self, shape, src, indent, rooted):
        self.shape, self.src = shape, src
        self.depth = max(len(shape.chain(n)) for n in shape.nodes[1:])
        self.indent, self.rooted = indent, rooted
        chains = [()] + [shape.chain(n) for n in shape.nodes[1:]]
        table = []
        for links in chains:
            tags = [n.tag for n in links]
            row = []
            for common in range(len(tags) + 1):
                row.append("".join(
                    closing(tags[depth - 1], indent, depth - 1 + rooted,
                            children=depth < len(tags))
                    for depth in range(len(tags), common, -1)))
            table.append(tuple(row))
        self.cl = src.const(tuple(table), "CL")
        self.chains = chains
        self.root_single = len(shape.nodes[1].key_args) == 1

    def open_markup(self, depth, tag):
        return opening(tag, self.indent, depth - 1 + self.rooted)

    def names(self):
        """The tagger's locals, as the tag step takes and returns them."""
        return "last, written, implicit, top, deepest, dup, " + ", ".join(
            f"K{depth}, F{depth}" for depth in range(1, self.depth + 1))

    def state(self, at):
        """Initialise the tagger's locals: an empty stack."""
        add = self.src.add
        for depth in range(1, self.depth + 1):
            add(at, f"K{depth} = F{depth} = None")
        add(at, "last = written = implicit = top = deepest = dup = 0")

    def finish(self, at):
        """Close what is open, mark, and return the counts.  The last is
        the instances tagged: each adds one element it does not open
        implicitly, or is a duplicate (``dup``)."""
        add = self.src.add
        add(at, "if last:")
        add(at + 1, f"write({self.cl}[last][0])")
        add(at + 1, "if marks is not None:")
        add(at + 2, f"marks.append(({self._mark_key()}, tell(), written, "
                    "implicit, top))")
        add(at, "if top > deepest:")
        add(at + 1, "deepest = top")
        add(at, "return written, implicit, deepest, written - implicit + dup")

    def _mark_key(self):
        return "(K1,)" if self.root_single else "K1"

    @staticmethod
    def _key(element, value):
        """The key identity of ``element`` from the instance's values:
        a scalar for one key argument, else a tuple."""
        parts = [value(stv.name) for stv in element.key_args]
        if len(parts) == 1:
            return parts[0]
        return "(" + "".join(p + ", " for p in parts) + ")"

    def _step(self, at, node_id, value):
        """What tagging an instance of ``node_id`` starts from: ``m``, the
        chain it shares with the stack, and ``(node, depth, key
        expressions per depth, whether the chain nests)``."""
        links = self.chains[node_id]
        shared = self.src.const(tuple(
            _shared(links, other) for other in self.chains), "A")
        self.src.add(at, f"m = {shared}[last]")
        nested = all(set(parent.key_args) <= set(child.key_args)
                     for parent, child in zip(links, links[1:]))
        return (links[-1], len(links),
                [self._key(e, value) for e in links], nested)

    def block(self, at, node_id, value, term):
        """Tag one instance of node ``node_id``; ``value(name)`` is the
        expression of its value of the variable ``name`` ("None" when it
        does not carry it) and ``term`` a local holding its term."""
        add = self.src.add
        node, length, keys, nested = self._step(at, node_id, value)
        own = f"(F{length} is None or F{length} == {term})"
        if nested:
            add(at, f"if m == {length} and K{length} == {keys[-1]} "
                    f"and {own}:")
            add(at + 1, f"c = {length}")
            for depth in range(length - 1, 0, -1):
                add(at, f"elif m >= {depth} and K{depth} == {keys[depth - 1]}:")
                add(at + 1, f"c = {depth}")
            add(at, "else:")
            add(at + 1, "c = 0")
        else:
            for depth in range(1, length):
                add(at, f"{'if' if depth == 1 else 'elif'} m < {depth} or "
                        f"K{depth} != {keys[depth - 1]}:")
                add(at + 1, f"c = {depth - 1}")
            add(at, f"{'if' if length == 1 else 'elif'} m < {length} or "
                    f"K{length} != {keys[-1]} or not {own}:")
            add(at + 1, f"c = {length - 1}")
            add(at, "else:")
            add(at + 1, f"c = {length}")
        add(at, f"if c < {length}:")
        at += 1
        add(at, f"o = {self.cl}[last][c]")
        add(at, "if not c and last:")
        self._mark(at + 1)
        for depth, element in enumerate(self.chains[node_id][:-1], 1):
            add(at, f"if c < {depth}:")
            self._open(at + 1, depth, element, value, keys, "None")
        self._open(at, length, node, value, keys, term)
        add(at, "write(o)")
        if length > 1:
            add(at, f"if c < {length - 1}:")
            add(at + 1, f"implicit += {length - 1} - c")
        add(at, f"written += {length} - c")
        self._opened(at, node_id, length)
        add(at - 1, "else:")
        add(at, "dup += 1")

    def quick(self, at, node_id, value, term):
        """Tag one instance of node ``node_id`` where its parent's frame
        matches and its own does not — the step of a document-order
        stream; anywhere else ``break`` (the caller runs the keyed path
        for the rest of the row).  The memo of the member is the caller's
        to set, after the guard."""
        add = self.src.add
        node, length, keys, nested = self._step(at, node_id, value)
        parents = [length - 1] if nested else range(1, length)
        guard = "".join(f"K{depth} != {keys[depth - 1]} or "
                        for depth in parents if depth)
        if length > 1:
            guard = f"m < {length - 1} or {guard}"
        add(at, f"if {guard}m == {length} and K{length} == {keys[-1]} and "
                f"(F{length} is None or F{length} == {term}):")
        add(at + 1, "break")
        add(at, f"o = {self.cl}[last][{length - 1}]")
        if length == 1:
            add(at, "if last:")
            self._mark(at + 1)
        self._open(at, length, node, value, keys, term)
        add(at, "write(o)")
        add(at, "written += 1")
        self._opened(at, node_id, length)

    def _mark(self, at):
        """A close to the empty stack: the top-level mark."""
        add = self.src.add
        add(at, "if marks is not None:")
        add(at + 1, "write(o)")
        add(at + 1, "o = ''")
        add(at + 1, f"marks.append(({self._mark_key()}, tell(), written, "
                    "implicit, top))")
        add(at, "if top > deepest:")
        add(at + 1, "deepest = top")
        add(at, "top = 0")

    def _open(self, at, depth, element, value, keys, full):
        add = self.src.add
        add(at, f"o += {self.src.const(self.open_markup(depth, element.tag), 'T')}")
        self._contents(at, element, value)
        add(at, f"K{depth} = {keys[depth - 1]}")
        add(at, f"F{depth} = {full}")

    def _opened(self, at, node_id, length):
        add = self.src.add
        add(at, f"if top < {length}:")
        add(at + 1, f"top = {length}")
        add(at, f"last = {node_id}")

    def _contents(self, at, element, value):
        src, add = self.src, self.src.add
        for content in element.contents:
            if not isinstance(content, Stv):
                add(at, f"o += {src.const(escape_text(content), 'T')}")
                continue
            expr = value(content.name)
            if expr == "None":
                continue
            add(at, f"v = {expr}")
            add(at, "if v is not None:")
            kind = _PYTHON_TYPE.get(content.sql_type)
            if kind is None:
                add(at + 1, f"o += {src.const(escape_text, 'E')}(v)")
            else:
                add(at + 1, f"o += {src.const(CHARACTER_DATA[kind], 'X')}(v) "
                            f"if {src.const(type, 'TY')}(v) is "
                            f"{src.const(kind, 'P')} else "
                            f"{src.const(escape_text, 'E')}(v)")

    def dispatch(self, at, ids, term="t"):
        """Tag the instance ``(_, i, term)`` by a binary search over the
        node ids ``ids``."""
        ids = sorted(ids)
        if len(ids) == 1:
            node = self.shape.nodes[ids[0]]
            args = {stv.name: i for i, stv in enumerate(node.args)}
            self.block(at, ids[0], lambda name: (
                f"{term}[{args[name]}]" if name in args else "None"), term)
            return
        half = len(ids) // 2
        self.src.add(at, f"if i < {ids[half]}:")
        self.dispatch(at + 1, ids[:half], term)
        self.src.add(at, "else:")
        self.dispatch(at + 1, ids[half:], term)


def _shared(links, other):
    """How many chain elements ``links`` and ``other`` share, root first."""
    shared = 0
    for a, b in zip(links, other):
        if a is not b:
            break
        shared += 1
    return shared


def tag_kernel(shape, indent, rooted):
    """``tag(items, write, tell, marks, state)``: the tag step over
    merged ``(key, node id, term)`` items.  From an empty stack
    (``state`` None) it ends on one and returns ``(elements, implicit
    opens, deepest stack, instances)``; from a ``state`` — the single-stream
    kernel's, for the instances it does not tag itself — it returns the
    state it leaves."""
    def build():
        src = Source()
        tagging = _Tagging(shape, src, indent, rooted)
        src.add(0, "def tag(items, write, tell, marks, state):")
        src.add(1, "if state is None:")
        tagging.state(2)
        src.add(1, "else:")
        src.add(2, f"{tagging.names()} = state")
        src.add(1, "for _, i, t in items:")
        tagging.dispatch(2, range(1, len(shape.nodes)))
        src.add(1, "if state is not None:")
        src.add(2, f"return {tagging.names()}")
        tagging.finish(1)
        return src
    step = shape.steps.get((indent, rooted))
    if step is None:
        step = shape.steps[indent, rooted] = compiled(
            ("xmlgen", shape.key, "tag", indent, rooted), build)
    return step


# -- one stream -----------------------------------------------------------


class StreamShape:
    """One stream shape against a view tree, analysed for code generation:
    per member its term and key template, per path its members in the
    order the compile-time order table decides (or undecided) and whether
    its merged members can be written with their row.

    Templates are over the *extended row*: the row, then the type tag of
    every key column, then the constants a key can hold (the NULL tag and
    value, the ``int`` tag, the ``L`` ordinals) — constants ascend in
    that tail, so two templates compare at compile time wherever they
    first differ in a constant."""

    def __init__(self, shape, spec):
        self.shape = shape
        names = spec.column_names
        positions = self.positions = {name: i for i, name in enumerate(names)}
        self.width = width = len(names)
        self.l_columns = [positions[f"L{level}"] for level in spec.l_levels]
        self.key_columns = [
            positions[stv.name] for kind, stv in shape.entries
            if kind == "stv" and stv.name in positions
        ]
        tag_at = {name: width + i for i, name in enumerate(
            names[p] for p in self.key_columns)}
        null_tag = self.null_tag = width + len(self.key_columns)
        null, int_tag, first_int = null_tag + 1, null_tag + 2, null_tag + 3
        self.constants = ("", None, TYPE_TAGS[int])
        self.members = {
            member.index: member
            for path in spec.unit_paths.values()
            for unit in path
            for member in unit.members
        }
        templates = self.templates = {}
        for index, member in self.members.items():
            carried = {stv.name for stv in member.args}
            template = templates[index] = []
            for kind, what in shape.entries:
                if kind == "L":
                    if what <= member.level:
                        template += (int_tag, first_int + index[what - 1])
                    else:
                        template += (null_tag, null)
                elif what.name in carried and what.name in positions:
                    template += (tag_at[what.name], positions[what.name])
                else:
                    template += (null_tag, null)

        def order(left, right):
            for a, b in zip(templates[left], templates[right]):
                if a != b:
                    return None if min(a, b) < null_tag else (a > b) - (a < b)
            return 0

        #: Per path: (terminal, representative, members at or before the
        #: row's position in key order, late members in key order or
        #: None when undecided, look-ahead or None).
        self.paths = []
        for terminal, path in spec.unit_paths.items():
            indices = [m.index for unit in path for m in unit.members]
            rep = path[-1].representative.index
            table = {(a, b): order(a, b) for a in indices for b in indices}
            late = None
            if None not in table.values():
                indices.sort(key=cmp_to_key(lambda a, b: table[a, b]))
                late = [i for i in indices if table[i, rep] > 0]
                indices = [i for i in indices if table[i, rep] <= 0]
            unit = {m.index for m in path[-1].members}
            self.paths.append((terminal, rep, indices, late,
                               self._look_ahead(rep, late, unit)))

    def _look_ahead(self, rep, late, unit):
        """Whether ``late`` (merged members sorting after the row's
        position ``rep``) can be written right after their row, and on
        what condition: the columns of the representative's key (its
        variables and ``L`` tags), where the next row must differ from
        this one.  None when the order table cannot show it.

        Written with its row, a late member comes out before anything the
        next row emits.  That is the decoder's order when nothing the next
        row emits can sort between the row's position and the member
        (rows arrive in document order, so it releases the member): no
        other unit's member can (checked here, against every path of the
        stream, by constants alone), and a member of the row's own unit
        only where the next row repeats the representative's key — which
        the look-ahead rules out."""
        if not late:
            return [] if late is not None else None
        templates, null_tag = self.templates, self.null_tag
        first = templates[late[0]]
        cut = next(i for i, (a, b) in enumerate(zip(templates[rep], first))
                   if a != b)
        if any(templates[y][:cut] != first[:cut] for y in (*late, *unit)):
            return None
        for y in self.members:
            if y not in unit and any(
                    _between(templates[rep], templates[x], templates[y],
                             cut, null_tag) for x in late):
                return None
        return sorted({p for p in first[:cut] if p < self.width}
                      | set(self.l_columns[:len(rep)]))

    def term(self, index, var="r"):
        """The term expression of member ``index`` over row ``var``."""
        parts = [f"{var}[{self.positions[stv.name]}]"
                 if stv.name in self.positions else "None"
                 for stv in self.members[index].args]
        return "(" + "".join(p + ", " for p in parts) + ")"

    def key(self, index, src, var="r", compact=False):
        """The comparator key expression of member ``index``: flat, or
        ``compact`` — the template's pairs without tags and NULL pairs."""
        width, null_tag = self.width, self.null_tag
        names = {self.width + i: c for i, c in enumerate(self.key_columns)}
        template = self.templates[index]
        if compact:
            template = [value for tag, value in zip(template[::2],
                                                    template[1::2])
                        if tag != null_tag]
        parts = []
        for slot in template:
            if slot < width:
                parts.append(f"{var}[{slot}]")
            elif slot < null_tag:
                parts.append(f"{src.const(TYPE_TAGS, 'TG')}"
                             f"[{src.const(type, 'TY')}"
                             f"({var}[{names[slot]}])]")
            elif slot - null_tag < 3:
                parts.append(repr(self.constants[slot - null_tag]))
            else:
                parts.append(str(slot - null_tag - 3))
        return "(" + ", ".join(parts) + ",)"

    def value_of(self, index, var="r"):
        """``name -> `` the expression of member ``index``'s value of the
        variable ``name`` over row ``var``."""
        carried = {stv.name for stv in self.members[index].args}
        return lambda name: (
            f"{var}[{self.positions[name]}]"
            if name in carried and name in self.positions else "None")


def _between(rep, late, other, cut, null_tag):
    """Whether a key of template ``other``, from any row, can sort after
    ``rep``'s and at or before ``late``'s key of one row (the two agree
    before ``cut``, where both hold constants).  False only where
    constants prove it."""
    for a, b in zip(late[:cut], other[:cut]):
        if a != b and min(a, b) >= null_tag:
            return False
    low, high, here = rep[cut], late[cut], other[cut]
    if here < null_tag:
        return True
    if here < low or here > high:
        return False
    if here < high or here == low:
        return True
    for a, b in zip(late[cut + 1:], other[cut + 1:]):
        if a != b:
            if min(a, b) < null_tag:
                return True
            return b < a
    return True


def _resolve(paths, terminal, row, label, end):
    """The path number of a row whose ``L`` tags are not one path's
    exactly: tags after the first NULL are ignored; ``end`` (the
    single-stream kernel's end of rows) is -1."""
    if row is end:
        return -1
    if None in terminal:
        terminal = terminal[:terminal.index(None)]
    number = paths.get(terminal)
    if number is None:
        if not terminal:
            raise PlanError("tuple with no L tag cannot be decoded")
        raise PlanError(f"no unit with index {terminal} in stream {label}")
    return number


def _stream_source(stream, form, tagging=None, step=None, compact=False):
    """The decoder (``form`` "decode", keyed ``compact`` or flat) or the
    single-stream kernel ("write") of ``stream``; one generator emits both.

    Per row both find the path from the ``L`` tags and run the memo
    check of each member.  The decoder yields a fresh member at once
    where its path's order was decided and nothing waits; the kernel
    writes it at once (:meth:`_Tagging.quick`), and also the late members
    with their row where :meth:`StreamShape._look_ahead` allows.
    Everything else takes the keyed path: the row's fresh instances with
    their keys, sorted and split at the row's position where undecided,
    the waiting ones released up to it — the decoder's definition,
    :func:`~repro.xmlgen.streams.reference_decode` — which the kernel
    hands to the tag step ``step``."""
    shape = stream.shape
    src = tagging.src if tagging is not None else Source()
    add = src.add
    ids = shape.ids
    node_of = {index: ids[member] for index, member in stream.members.items()}
    writing = form == "write"
    paths = {terminal: n for n, (terminal, *_) in enumerate(stream.paths)}
    width = len(stream.l_columns)
    exact = {terminal + (None,) * (width - len(terminal)): n
             for terminal, n in paths.items()}
    lt = "(" + "".join(f"r[{c}], " for c in stream.l_columns) + ")"
    end = src.const(type("EndOfRows", (tuple,), {})(
        (_NO,) * max(stream.width, 1)), "END")
    resolve = (f"{src.const(_resolve, 'R')}({src.const(paths, 'PATHS')}, "
               f"lt, r, label, {end})")
    deferring = any(late is None or late for *_, late, _ in stream.paths)
    k0 = src.const(_K0, "K")
    bisect = src.const(bisect_right, "B")

    if writing:
        add(0, "def write_stream(rows, label, write, tell, marks):")
        tagging.state(1)
    else:
        add(0, "def decode(rows, label):")
    for index in stream.members:
        add(1, f"M{node_of[index]} = {src.const(_NO, 'NO')}")
    add(1, "pending = []")
    if writing:
        add(1, f"it = {src.const(iter, 'I')}(rows)")
        add(1, f"r = {src.const(next, 'N')}(it, {end})")
        add(1, f"for nxt in {src.const(chain, 'CH')}(it, ({end}, {end})):")
    else:
        add(1, "for r in rows:")
    add(2, f"lt = {lt}")
    add(2, f"p = {src.const(exact, 'PID')}.get(lt)")
    add(2, "if p is None:")
    add(3, f"p = {resolve}")

    def key(index):
        return stream.key(index, src, compact=compact)

    def fresh_check(at, index, then):
        add(at, f"t = {stream.term(index)}")
        add(at, f"if t != M{node_of[index]}:")
        add(at + 1, f"M{node_of[index]} = t")
        then(at + 1, index)

    def emit_now(at, index):
        add(at, f"yield ({key(index)}, {node_of[index]}, t)")

    def write_now(at, index):
        add(at, f"t = {stream.term(index)}")
        add(at, f"if t != M{node_of[index]}:")
        tagging.quick(at + 1, node_of[index], stream.value_of(index), "t")
        add(at + 1, f"M{node_of[index]} = t")

    def tag_fresh(at):
        """The tag step over ``fresh``, on the kernel's own locals."""
        names = tagging.names()
        add(at, f"{names} = {src.const(step, 'STEP')}(fresh, write, tell, "
                f"marks, ({names}))")

    def keyed(at, index, into):
        add(at, f"{into}.append(({key(index)}, {node_of[index]}, t))")

    for number, (terminal, rep, early, late, look) in enumerate(
            stream.paths):
        add(2, f"{'if' if number == 0 else 'elif'} p == {number}:")
        if late is not None and (not (writing and late) or look is not None):
            cond = "not pending" if deferring else "True"
            if writing and late:
                cond += f" and ({_look_expr(look)})"
            add(3, f"if {cond}:")
            if writing:
                # The row inline; a break leaves the rest of it to the
                # keyed path, where the members written have their memo.
                add(4, f"for _ in {src.const((None,), 'ONCE')}:")
                for index in early + late:
                    write_now(5, index)
                add(4, "else:")
                add(5, "r = nxt")
                add(5, "continue")
            else:
                for index in early:
                    fresh_check(4, index, emit_now)
                for index in late:
                    fresh_check(4, index,
                                lambda at, i: keyed(at, i, "pending"))
                add(4, "continue")
        # The keyed path.
        add(3, "fresh = []")
        for index in early:
            fresh_check(3, index, lambda at, i: keyed(at, i, "fresh"))
        if late is None:
            add(3, f"if {src.const(len, 'LEN')}(fresh) > 1:")
            add(4, f"fresh.sort(key={k0})")
            add(3, f"h = {key(rep)}")
            add(3, "late = ()")
            add(3, "if pending or (fresh and fresh[-1][0] > h):")
            add(4, f"x = {bisect}(fresh, h, key={k0})")
            add(4, "late = fresh[x:]")
            add(4, "del fresh[x:]")
        else:
            add(3, "late = []")
            for index in late:
                fresh_check(3, index, lambda at, i: keyed(at, i, "late"))
            add(3, "if pending:")
            add(4, f"h = {key(rep)}")
        add(3, "if pending:")
        add(4, f"x = {bisect}(pending, h, key={k0})")
        add(4, "if x:")
        add(5, "fresh += pending[:x]")
        add(5, "del pending[:x]")
        add(5, f"fresh.sort(key={k0})")
        add(3, "if late:")
        add(4, "pending += late")
        add(4, f"pending.sort(key={k0})")
    if writing:
        add(2, "else:")
        add(3, "fresh = pending")
        add(3, "pending = []")
        add(2, "if fresh:")
        tag_fresh(3)
        add(2, "r = nxt")
        tagging.finish(1)
    else:
        add(2, "yield from fresh")
        add(1, "yield from pending")
    return src


def _look_expr(look):
    """True when row ``nxt`` differs from row ``r`` in one of the columns
    ``look``."""
    return " or ".join(f"nxt[{column}] != r[{column}]" for column in look)


def stream_key(spec):
    """The structural key of ``spec``'s shape."""
    return (
        spec.column_names,
        spec.sort_keys,
        tuple(
            (terminal, tuple(
                (unit.representative.index,
                 tuple(member.index for member in unit.members))
                for unit in path))
            for terminal, path in spec.unit_paths.items()
        ),
    )


def decoder_kernel(shape, spec, key, compact=False):
    """``decode(rows, label)``: the generator of ``spec``'s stream shape's
    ``(key, node id, term)`` items (keys ``compact`` or flat), in order."""
    return compiled(("xmlgen", shape.key, key, "decode", compact),
                    lambda: _stream_source(StreamShape(shape, spec), "decode",
                                           compact=compact))


def stream_kernel(shape, spec, key, indent, rooted):
    """``write_stream(rows, label, write, tell, marks) -> (elements,
    implicit opens, deepest stack, instances)``: ``spec``'s rows to
    markup, alone."""
    def build():
        return _stream_source(StreamShape(shape, spec), "write",
                              _Tagging(shape, Source(), indent, rooted),
                              tag_kernel(shape, indent, rooted))
    return compiled(("xmlgen", shape.key, key, "write", indent, rooted),
                    build)


# -- a walk of the tree ---------------------------------------------------


def _walk_source(streams, tagging):
    """The walk of a run whose streams carry one view-tree node each, every
    node once, each sorted by its node's key (its parent's key, then its
    own values): one loop per node, nested in child order, tags the
    node's instances under the open parent instance.

    A node's loop takes rows while their parent-key columns equal the
    parent's key locals; per row the member's memo drops a repeated term,
    as the decoder does.  Where the node has children it then takes every
    row that repeats its own key — the stable sort of the items puts them
    before the children — and descends.  The cursors are primed in spec
    order, as :func:`heapq.merge` primes its decoders; a row left over at
    the end was claimed by no parent instance."""
    shape, src = tagging.shape, tagging.src
    add = src.add
    end = src.const(type("EndOfRows", (tuple,), {})(
        (_NO,) * max(stream.width for stream in streams)), "END")
    step = src.const(next, "N")
    of = {}
    for s, stream in enumerate(streams):
        [(index, member)] = stream.members.items()
        template = stream.templates[index]
        of[shape.ids[member]] = (s, stream, index, [
            value for tag, value in zip(template[::2], template[1::2])
            if tag != stream.null_tag and value < stream.width])

    def take(at, node_id, keep):
        s, stream, index, key = of[node_id]
        add(at, f"t = {stream.term(index, f'r{s}')}")
        add(at, f"if t != M{s}:")
        add(at + 1, f"M{s} = t")
        tagging.block(at + 1, node_id, stream.value_of(index, f"r{s}"), "t")
        if keep:
            for j, column in enumerate(key):
                add(at, f"Q{node_id}_{j} = r{s}[{column}]")
        add(at, f"r{s} = {step}(it{s}, {end})")

    def under(s, key, owner):
        """Whether row ``r<s>``, keyed by the columns ``key``, repeats the
        key of node ``owner``'s open instance (None: the empty stack)."""
        width = 0 if owner is None else len(of[owner][3])
        return " and ".join(f"r{s}[{column}] == Q{owner}_{j}"
                            for j, column in enumerate(key[:width])
                            ) or f"r{s} is not {end}"

    def loop(at, node):
        node_id = shape.ids[node]
        s, _, _, key = of[node_id]
        parent = node.parent and shape.ids[node.parent]
        add(at, f"while {under(s, key, parent)}:")
        take(at + 1, node_id, keep=bool(node.children))
        if node.children:
            add(at + 1, f"while {under(s, key, node_id)}:")
            take(at + 2, node_id, keep=False)
            for child in node.children:     # in index order
                loop(at + 1, child)

    add(0, "def walk(rows, labels, write, tell, marks):")
    tagging.state(1)
    for s in range(len(streams)):
        add(1, f"it{s} = {src.const(iter, 'I')}(rows[{s}])")
        add(1, f"r{s} = {step}(it{s}, {end})")
        add(1, f"M{s} = {src.const(_NO, 'NO')}")
    loop(1, shape.nodes[1])
    orphan = src.const("row {1!r} of stream {0} is under no instance of "
                       "its parent", "O")
    for s in range(len(streams)):
        add(1, f"if r{s} is not {end}:")
        add(2, f"raise {src.const(PlanError, 'PE')}("
               f"{orphan}.format(labels[{s}], r{s}))")
    tagging.finish(1)
    return src


def walk_kernel(shape, specs, keys, indent, rooted):
    """``walk(rows, labels, write, tell, marks) -> (elements, implicit
    opens, deepest stack, instances)``: the rows of ``specs``' streams
    (whose shapes' structural ``keys`` name the code), one node each, to
    markup by a walk of the tree."""
    def build():
        return _walk_source([StreamShape(shape, spec) for spec in specs],
                            _Tagging(shape, Source(), indent, rooted))
    return compiled(("xmlgen", shape.key, keys, "walk", indent, rooted),
                    build)
