"""Generated integration kernels: sorted rows to markup, compiled.

Sec. 3.3's integration is one constant-space pass over sorted streams in
the tree's key order, so everything about it that does not depend on the
rows is resolved before the first row arrives.  For one view tree this
module writes Python source into a
:class:`~repro.relational.codegen.Source`:

* the **walk** (:func:`walk_kernel`), per tree and plan: each stream
  carries one component of the partition, and one loop per node, nested
  in child order, reads the current row of its component's stream and
  tags the node's instances under the open parent instance — rows to
  markup with no item, key, sort or merge, whatever the stream count,
  and at the depth the loop nest fixes, with no stack frame compared;
* where :meth:`~repro.xmlgen.streams.ComparatorLayout.walks` does not
  allow the walk (a tree that is not aligned or is too deep, a NULL or
  two-typed key column, among others), a **decoder** per stream shape
  (:func:`decoder_kernel`): per row, the memo check on each member's term
  positions and, where an instance must wait, the keyed deferral; it
  yields ``(key, node id, term)`` items on flat keys in document order,
  for the heap merge and the **tag step** (:func:`tag_kernel`), which
  consumes merged items and writes markup.

The walk and the tag step keep the tagger's rules
(:class:`~repro.xmlgen.tagger.XmlTagger` is their reference) in one
emitter, :class:`_Tagging`: open and close markup pre-rendered per (node,
depth), character data formatted by the column's SQL type; the stack is
one root path, so it is held as the node whose chain it is plus one key
and one term per depth; a top-level close leaves a splice mark.  The tag
step matches an instance against the stack at run time, frames deepest
first on a nested chain, root first otherwise; the walk does so only
where a parent instance may be missing (a child, in another stream, of
a node whose loop can run without its instance), and everywhere else
writes the step at the depth its loop fixes.  The code
is kept in :data:`~repro.relational.codegen.CODE`, process-wide, under a
structural key: it holds no rows and no tree objects, so a fresh session
exporting a known shape compiles nothing.
"""

import datetime
from bisect import bisect_right
from functools import cmp_to_key
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
    """Emits the tagger's step for one instance as straight-line code —
    matched against the stack (:meth:`block`) or at a known depth
    (:meth:`fixed`) — and the tables it reads: per node the chain prefix
    it shares with every other (a constant ``_A<n>[last]``, for the
    match) and per (last node, depth) the closing markup
    (``_CL<n>[last][depth]``)."""

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
        #: The depths whose key local ``K<d>`` (up to ``keyed``) and term
        #: local ``F<d>`` (those in ``termed``) something reads: every
        #: depth, unless the walk narrows them to what its steps match on.
        self.keyed, self.termed = self.depth, range(1, self.depth + 1)

    def open_markup(self, depth, tag):
        return opening(tag, self.indent, depth - 1 + self.rooted)

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
            self._open(at + 1, depth, element, value, keys[depth - 1],
                       "None")
        self._open(at, length, node, value, keys[-1], term)
        add(at, "write(o)")
        if length > 1:
            add(at, f"if c < {length - 1}:")
            add(at + 1, f"implicit += {length - 1} - c")
        add(at, f"written += {length} - c")
        self._opened(at, node_id, length)
        add(at - 1, "else:")
        add(at, "dup += 1")

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

    def fixed(self, at, node_id, value, term):
        """Tag one instance of node ``node_id`` whose parent's instance is
        on top of the stack, as a walk's loop nest makes it: its depth is
        the match the stack would give, so the step closes down to the
        parent and opens the node, with no frame compared and no
        duplicate."""
        add = self.src.add
        links = self.chains[node_id]
        length, node = len(links), links[-1]
        if length == 1:
            add(at, f"o = {self.cl}[last][0]")
            add(at, "if last:")
            self._mark(at + 1)
            start = "o +="
        else:
            start = f"o = {self.cl}[last][{length - 1}] +"
        self._open(at, length, node, value, self._key(node, value), term,
                   start)
        add(at, "write(o)")
        add(at, "written += 1")
        self._opened(at, node_id, length)

    def _open(self, at, depth, element, value, key, full, start="o +="):
        """Open ``element`` at ``depth`` (its markup after ``start``) with
        its contents, and set its frame's locals where a step reads
        them."""
        add = self.src.add
        add(at, f"{start} "
                f"{self.src.const(self.open_markup(depth, element.tag), 'T')}")
        self._contents(at, element, value)
        if depth <= self.keyed:
            add(at, f"K{depth} = {key}")
        if depth in self.termed:
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
    """``tag(items, write, tell, marks)``: the tag step over merged
    ``(key, node id, term)`` items, from an empty stack to an empty
    stack; returns ``(elements, implicit opens, deepest stack,
    instances)``."""
    def build():
        src = Source()
        tagging = _Tagging(shape, src, indent, rooted)
        src.add(0, "def tag(items, write, tell, marks):")
        tagging.state(1)
        src.add(1, "for _, i, t in items:")
        tagging.dispatch(2, range(1, len(shape.nodes)))
        tagging.finish(1)
        return src
    step = shape.steps.get((indent, rooted))
    if step is None:
        step = shape.steps[indent, rooted] = compiled(
            ("xmlgen", shape.key, "tag", indent, rooted), build)
    return step


# -- a stream shape, and its decoder --------------------------------------


class StreamShape:
    """One stream shape against a view tree, analysed for code generation:
    per member its term, key template and unit, per path its members in
    the order the compile-time order table decides (or undecided).

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
        self.members, self.unit_of = {}, {}
        for path in spec.unit_paths.values():
            for unit in path:
                for member in unit.members:
                    self.members[member.index] = member
                    self.unit_of[member.index] = unit
        #: The level of the stream's root unit, whose ``L`` tags every row
        #: shares.
        self.top = min(map(len, spec.unit_paths))
        #: Per unit, the units from the stream's root to it.
        self.unit_paths = spec.unit_paths
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
        #: None when undecided).
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
            self.paths.append((terminal, rep, indices, late))

    def term(self, index, var="r"):
        """The term expression of member ``index`` over row ``var``."""
        parts = [f"{var}[{self.positions[stv.name]}]"
                 if stv.name in self.positions else "None"
                 for stv in self.members[index].args]
        return "(" + "".join(p + ", " for p in parts) + ")"

    def key(self, index, src, var="r"):
        """The flat comparator key expression of member ``index``."""
        width, null_tag = self.width, self.null_tag
        names = {self.width + i: c for i, c in enumerate(self.key_columns)}
        parts = []
        for slot in self.templates[index]:
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


def _resolve(paths, terminal, label):
    """The path number of a row whose ``L`` tags are not one path's
    exactly: tags after the first NULL are ignored."""
    if None in terminal:
        terminal = terminal[:terminal.index(None)]
    number = paths.get(terminal)
    if number is None:
        if not terminal:
            raise PlanError("tuple with no L tag cannot be decoded")
        raise PlanError(f"no unit with index {terminal} in stream {label}")
    return number


def _decoder_source(stream):
    """The decoder of ``stream``.

    Per row it finds the path from the ``L`` tags and runs the memo check
    of each member, and yields a fresh member at once where its path's
    order was decided and nothing waits.  Everything else takes the keyed
    path: the row's fresh instances with their keys, sorted and split at
    the row's position where undecided, the waiting ones released up to
    it — the decoder's definition,
    :func:`~repro.xmlgen.streams.reference_decode`."""
    src = Source()
    add = src.add
    ids = stream.shape.ids
    node_of = {index: ids[member] for index, member in stream.members.items()}
    paths = {terminal: n for n, (terminal, *_) in enumerate(stream.paths)}
    width = len(stream.l_columns)
    exact = {terminal + (None,) * (width - len(terminal)): n
             for terminal, n in paths.items()}
    lt = "(" + "".join(f"r[{c}], " for c in stream.l_columns) + ")"
    deferring = any(late is None or late for *_, late in stream.paths)
    k0 = src.const(_K0, "K")
    bisect = src.const(bisect_right, "B")

    add(0, "def decode(rows, label):")
    for index in stream.members:
        add(1, f"M{node_of[index]} = {src.const(_NO, 'NO')}")
    add(1, "pending = []")
    add(1, "for r in rows:")
    add(2, f"lt = {lt}")
    add(2, f"p = {src.const(exact, 'PID')}.get(lt)")
    add(2, "if p is None:")
    add(3, f"p = {src.const(_resolve, 'R')}({src.const(paths, 'PATHS')}, "
           "lt, label)")

    def key(index):
        return stream.key(index, src)

    def fresh_check(at, index, then):
        add(at, f"t = {stream.term(index)}")
        add(at, f"if t != M{node_of[index]}:")
        add(at + 1, f"M{node_of[index]} = t")
        then(at + 1, index)

    def emit_now(at, index):
        add(at, f"yield ({key(index)}, {node_of[index]}, t)")

    def keyed(at, index, into):
        add(at, f"{into}.append(({key(index)}, {node_of[index]}, t))")

    for number, (terminal, rep, early, late) in enumerate(stream.paths):
        add(2, f"{'if' if number == 0 else 'elif'} p == {number}:")
        if late is not None:
            add(3, f"if {'not pending' if deferring else 'True'}:")
            for index in early:
                fresh_check(4, index, emit_now)
            for index in late:
                fresh_check(4, index, lambda at, i: keyed(at, i, "pending"))
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
    add(2, "yield from fresh")
    add(1, "yield from pending")
    return src


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


def decoder_kernel(shape, spec, key):
    """``decode(rows, label)``: the generator of ``spec``'s stream shape's
    ``(key, node id, term)`` items, in order."""
    return compiled(("xmlgen", shape.key, key, "decode"),
                    lambda: _decoder_source(StreamShape(shape, spec)))


# -- a walk of the tree ---------------------------------------------------


def _walk_source(streams, tagging):
    """The walk of a run whose streams carry one component of the view
    tree each, every node once, each stream sorted in the tree's key
    order: one loop per node, nested in child order, tags the node's
    instances under the open parent instance.

    A node's loop reads the current row of its component's stream while
    the row's ``L`` tags pass through the node's unit and its parent-key
    columns equal the parent's key locals.  It takes the node's instance
    from the row as the decoder does, the member's memo dropping a
    repeated term, and tags it at the depth the loop fixes: the parent's
    instance is on top of the stack.  It holds the rows of the instance
    for the unit's merged members: they are written from them in their
    place in the tree, so one that sorts after the row's children still
    comes out there.  A stream advances
    only at its row's terminal unit.  Where the node has children the
    loop first takes every row of its unit that repeats its key — the
    stable merge of the items puts them before the children — and then
    descends.

    Rows of a stream below the node may lack their instance of it where
    a merged member is on the node's path (its join can miss a row a
    write removed, which the child queries do not join): such a node
    iterates over the least of its own and those streams' keys, and for
    a key only they hold descends without an instance, so its children
    in those streams match the stack as the tag step does and open the
    node implicitly, as the merge of the items does.  The
    cursors are primed in spec order, as :func:`heapq.merge` primes its
    decoders.  A row no child loop takes names no unit of its stream; a
    row left over at the end was claimed by no parent instance where
    none can be missing."""
    shape, src = tagging.shape, tagging.src
    add = src.add
    end = src.const(type("EndOfRows", (tuple,), {})(
        (_NO,) * max(stream.width for stream in streams)), "END")
    step = src.const(next, "N")
    no = src.const(_NO, "NO")
    of, roots = {}, []
    for s, stream in enumerate(streams):
        names = {position: name for name, position in stream.positions.items()}
        for index, member in stream.members.items():
            template = stream.templates[index]
            of[shape.ids[member]] = (s, stream, index, [
                names[value] for tag, value in zip(template[::2],
                                                   template[1::2])
                if tag != stream.null_tag and value < stream.width])
        roots.append(stream.members[min(t for t, *_ in stream.paths)])

    def columns(s, node_id):
        """Stream ``s``'s positions of the key variables of node
        ``node_id``'s chain."""
        positions = streams[s].positions
        return [positions[name] for name in of[node_id][3]]

    def key(s, node_id):
        """Row ``r<s>``'s key of node ``node_id``: a value or a tuple."""
        parts = [f"r{s}[{c}]" for c in columns(s, node_id)]
        return parts[0] if len(parts) == 1 else \
            "(" + "".join(p + ", " for p in parts) + ")"

    def take(at, node_id, var):
        """Tag the node's instance in row ``var`` unless its memo holds
        the same term: at a depth fixed by the loop nest, or by the tag
        step's match where the parent may be missing."""
        _, stream, index, _ = of[node_id]
        add(at, f"t = {stream.term(index, var)}")
        add(at, f"if t != M{node_id}:")
        add(at + 1, f"M{node_id} = t")
        tag = tagging.block if node_id in matched else tagging.fixed
        tag(at + 1, node_id, stream.value_of(index, var), "t")

    def under(s, owner):
        """Row ``r<s>`` repeats the key of node ``owner``'s open instance
        (None: the empty stack)."""
        if owner is None:
            return [f"r{s} is not {end}"]
        return [f"r{s}[{column}] == Q{owner}_{j}"
                for j, column in enumerate(columns(s, owner))] \
            or [f"r{s} is not {end}"]

    def holds(s, node_id, owner):
        """Row ``r<s>`` passes through the unit of node ``node_id`` and
        repeats the key of ``owner``'s open instance."""
        _, stream, index, _ = of[node_id]
        unit = stream.unit_of[index]
        return " and ".join(
            [f"r{s}[{stream.l_columns[level - 1]}] == {unit.index[level - 1]}"
             for level in range(stream.top + 1, unit.level + 1)]
            + under(s, owner))

    def unit_of(node):
        _, stream, index, _ = of[shape.ids[node]]
        return stream.unit_of[index]

    def below(node):
        """The streams under ``node``, a unit's representative with
        children, that may hold a key it lacks.  A unit's merged member
        joins a row the child queries do not, so where one is on the
        node's path, a write can drop the node's instance and leave the
        rows below it."""
        s, stream, _, _ = of[shape.ids[node]]
        unit = unit_of(node)
        if unit.representative is not node or not node.children or not any(
                len(u.members) > 1 for u in stream.unit_paths[unit.index]):
            return []
        return [j for j, root in enumerate(roots)
                if j != s and node.is_ancestor_of(root)]

    # Nodes whose loop can descend without their instance: one with
    # streams below, and its unit's merged members.  Only a child of one
    # in another stream can run with its parent missing (the parent's own
    # stream holds no row under a key it lacks), so only there does the
    # tag step match the stack; everywhere else the parent is on top.
    missing = {node for node in shape.nodes[1:] if below(node)}
    missing |= {node for node in shape.nodes[1:]
                if unit_of(node).representative in missing}
    matched = {shape.ids[node] for node in shape.nodes[2:]
               if node.parent in missing
               and of[shape.ids[node]][0] != of[shape.ids[node.parent]][0]}
    depths = [len(shape.chain(shape.nodes[n])) for n in matched]
    tagging.keyed = max(depths, default=1)
    tagging.termed = set(depths)

    def loop(at, node):
        node_id = shape.ids[node]
        s, stream, _, _ = of[node_id]
        unit = unit_of(node)
        rep = shape.ids[unit.representative]
        parent = node.parent and shape.ids[node.parent]
        if rep != node_id:
            # A merged member, from the rows its representative's instance
            # was taken from: the first (``H``, None where the instance is
            # missing) and any that repeat its key (``E``); it has no key
            # variable of its own.
            inner = at
            if unit.representative in missing:
                add(at, f"if H{rep} is not None:")
                inner += 1
            take(inner, node_id, f"H{rep}")
            add(inner, f"if E{rep} is not None:")
            add(inner + 1, f"for h in E{rep}:")
            take(inner + 2, node_id, "h")
            if node.children:
                for j in range(len(of[node_id][3])):
                    add(at, f"Q{node_id}_{j} = Q{parent}_{j}")
                for child in node.children:
                    loop(at, child)
            return
        if not node.children:
            add(at, f"while {holds(s, node_id, parent)}:")
            take(at + 1, node_id, f"r{s}")
            add(at + 1, f"r{s} = {step}(it{s}, {end})")
            return
        if node in missing:
            lower = below(node)
            # The least key under the parent, the node's own first.
            add(at, "while True:")
            at += 1
            add(at, f"if {holds(s, node_id, parent)}:")
            add(at + 1, f"k{node_id} = f{node_id} = {key(s, node_id)}")
            for j in lower:
                add(at + 1, f"if {' and '.join(under(j, parent))} and "
                            f"{key(j, node_id)} < k{node_id}:")
                add(at + 2, f"k{node_id} = {key(j, node_id)}")
            add(at, "else:")
            add(at + 1, f"k{node_id} = f{node_id} = {no}")
            for j in lower:
                add(at + 1, f"if {' and '.join(under(j, parent))} and "
                            f"(k{node_id} is {no} or "
                            f"{key(j, node_id)} < k{node_id}):")
                add(at + 2, f"k{node_id} = {key(j, node_id)}")
            add(at + 1, f"if k{node_id} is {no}:")
            add(at + 2, "break")
            add(at, f"if k{node_id} is not f{node_id}:")
            # Only streams below hold the key: no instance of the node.
            width = len(of[node_id][3])
            targets = ", ".join(f"Q{node_id}_{j}" for j in range(width))
            add(at + 1, f"{targets}{',' if width > 1 else ''} = k{node_id}")
            if len(unit.members) > 1:
                add(at + 1, f"H{node_id} = None")
            if deeper(stream, unit):
                add(at + 1, f"x{node_id} = None")
            add(at, "else:")
            instance(at + 1, node, s, stream, unit)
        else:
            add(at, f"while {holds(s, node_id, parent)}:")
            at += 1
            instance(at, node, s, stream, unit)
        for child in node.children:     # in index order
            loop(at, child)
        if deeper(stream, unit):
            add(at, f"if r{s} is x{node_id}:")
            add(at + 1, f"raise {src.const(PlanError, 'PE')}("
                        f"{src.const(_NO_UNIT, 'NU')}.format(labels[{s}], "
                        f"r{s}))")

    def deeper(stream, unit):
        """Rows of a deeper terminal unit carry an ``L`` tag past this
        one."""
        return any(len(terminal) > unit.level
                   and terminal[:unit.level] == unit.index
                   for terminal, *_ in stream.paths)

    def instance(at, node, s, stream, unit):
        """Take the node's instance from row ``r<s>`` and every row of its
        unit that repeats its key, holding them for the unit's merged
        members: the first row in ``H<id>``, the repeats (functional data
        has none) in ``E<id>``."""
        node_id = shape.ids[node]
        merged = len(unit.members) > 1
        for j, column in enumerate(columns(s, node_id)):
            add(at, f"Q{node_id}_{j} = r{s}[{column}]")
        if deeper(stream, unit):
            add(at, f"x{node_id} = r{s}")
        if merged:
            add(at, f"H{node_id} = r{s}")
            add(at, f"E{node_id} = None")
        add(at, "while True:")
        take(at + 1, node_id, f"r{s}")
        if deeper(stream, unit):
            add(at + 1, f"if r{s}[{stream.l_columns[unit.level]}] "
                        "is not None:")
            add(at + 2, "break")
        add(at + 1, f"r{s} = {step}(it{s}, {end})")
        add(at + 1, f"if not ({holds(s, node_id, node_id)}):")
        add(at + 2, "break")
        if merged:
            add(at + 1, f"if E{node_id} is None:")
            add(at + 2, f"E{node_id} = []")
            add(at + 1, f"E{node_id}.append(r{s})")

    add(0, "def walk(rows, labels, write, tell, marks):")
    tagging.state(1)
    for s in range(len(streams)):
        add(1, f"it{s} = {src.const(iter, 'I')}(rows[{s}])")
        add(1, f"r{s} = {step}(it{s}, {end})")
    for node_id in of:
        add(1, f"M{node_id} = {no}")
    loop(1, shape.nodes[1])
    orphan = src.const("row {1!r} of stream {0} is under no instance of "
                       "its parent", "O")
    for s in range(len(streams)):
        add(1, f"if r{s} is not {end}:")
        add(2, f"raise {src.const(PlanError, 'PE')}("
               f"{orphan}.format(labels[{s}], r{s}))")
    tagging.finish(1)
    return src


_NO_UNIT = "row {1!r} of stream {0} is in no unit under its parent"


def walk_kernel(shape, specs, keys, indent, rooted):
    """``walk(rows, labels, write, tell, marks) -> (elements, implicit
    opens, deepest stack, instances)``: the rows of ``specs``' streams
    (whose shapes' structural ``keys`` name the code), one component of
    the tree each, to markup by a walk of the tree."""
    def build():
        return _walk_source([StreamShape(shape, spec) for spec in specs],
                            _Tagging(shape, Source(), indent, rooted))
    return compiled(("xmlgen", shape.key, keys, "walk", indent, rooted),
                    build)
