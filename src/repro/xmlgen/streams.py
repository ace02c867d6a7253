"""Decoding tuple streams into node instances and merging them.

A partitioned relation's tuple encodes a path from its subtree's root to a
terminal node instance (Sec. 3.2): the ``L`` columns spell the terminal
node's Skolem-function index, and the Skolem-term variable columns carry the
argument values of every node on the path.  :func:`decode_stream` expands
each tuple into one :class:`Instance` per path node (and, for reduced
units, per original member node), deduplicating consecutive repeats so the
per-stream instance sequence is nondecreasing in global document order.

The global order (:class:`ComparatorLayout`) interleaves ``L`` tags and
Skolem-term variables level by level — using only variables that are *key*
arguments of some node, because display values of an internal node are
absent from its descendants' tuples and must not influence relative order.
NULLs sort first, which places every parent instance before its children.
"""

import heapq
from bisect import bisect_right
from operator import attrgetter, itemgetter
from types import NoneType

from repro.common.errors import PlanError
from repro.common.ordering import flat_key
from repro.core.viewtree import Stv
from repro.relational.cache import BoundedCache
from repro.relational.types import SqlType
from repro.xmlgen.kernel import (
    TreeShape,
    decoder_kernel,
    stream_key,
    walk_kernel,
)

_KEY = attrgetter("key")
_K0 = itemgetter(0)
_WALK_DEPTH = 16
#: Column types whose equal values are one Python type and print alike.
_EXACT = frozenset(
    (SqlType.INTEGER, SqlType.VARCHAR, SqlType.CHAR, SqlType.DATE)
)
_TEXT = frozenset((SqlType.VARCHAR, SqlType.CHAR))
#: Every walk's facts, once (:meth:`ComparatorLayout.walk_facts`).
_WALK_FACTS = {}


class Instance:
    """One occurrence of a view-tree node in the output document."""

    __slots__ = ("key", "node", "term")

    def __init__(self, key, node, term):
        self.key = key    # global comparator key (see ComparatorLayout)
        self.node = node  # ViewTreeNode
        self.term = term  # the Skolem-term argument values, in node.args order

    @property
    def values(self):
        """stv name -> value, for the node's Skolem-term arguments."""
        return {
            stv.name: value for stv, value in zip(self.node.args, self.term)
        }


class ComparatorLayout:
    """The interleaved global sort layout for a view tree.

    An instance key is a flat tuple ``(tag, value, tag, value, ...)`` with
    one pair per layout entry (:func:`repro.common.ordering.flat_key`):
    NULLs first, compared entirely in C.  Where :meth:`walks` allows, a
    plan needs no key: it is walked (:class:`Walk`).  The layout also
    owns the :class:`StreamDecoder` of every stream shape decoded against
    it, kept
    by whoever keeps the layout (a view's
    :class:`~repro.core.silkroute.ViewDefinition`, for the process).
    """

    def __init__(self, tree):
        self.tree = tree
        key_stvs = set()
        for node in tree.nodes:
            key_stvs.update(node.key_args)
        self.entries = []
        for level in range(1, tree.max_depth() + 1):
            self.entries.append(("L", level))
            for stv in tree.stvs_at_level(level):
                if stv in key_stvs:
                    self.entries.append(("stv", stv))
        #: The tree numbered for the generated kernels.
        self.shape = TreeShape(tree, self.entries)
        self._decoders = BoundedCache("decoders", max_entries=256)
        self._key_names = {stv.name for kind, stv in self.entries
                           if kind == "stv"}
        #: The variables some element prints as text (a VARCHAR or CHAR).
        self._text_names = {
            content.name for node in tree.nodes for content in node.contents
            if isinstance(content, Stv) and content.sql_type in _TEXT}

        def carried(node, level):
            return [stv for stv in node.args
                    if stv.level == level and stv.name in self._key_names]
        #: Every node carries at each level the key variables its ancestor
        #: there carries (a user Skolem function can break it).
        self.aligned = all(
            carried(node, level) == carried(tree.node(node.index[:level]),
                                            level)
            for node in tree.nodes for level in range(1, node.level))
        #: Nodes with children whose term holds more than their key: two
        #: instances may share a key, so one stream carrying such a node
        #: with a child does not list its items in key order.
        self._loose = {node for node in tree.nodes
                       if node.children and set(node.args) != set(node.key_args)}

    def walks(self, specs, database):
        """Whether a run of ``specs``' streams over ``database`` is walked
        (:class:`Walk`) rather than decoded and merged on flat keys.  It
        is where the streams carry every node of an :attr:`aligned` tree
        at most ``_WALK_DEPTH`` deep once, every key column holds one
        type, the same in every stream, and no NULL, no stream carries a
        node that can repeat its key with another term together with a
        child of it, and no merged member with children has a key
        variable of its own (it shares its unit's key locals).  The walk
        compares key values with ``==`` and ``<`` and nests one loop per
        level (CPython compiles at most 20 nested blocks); two flat keys
        then first differ where both hold an ``L`` ordinal or a value of
        one column, or one is a prefix of the other, so the tree's key
        order is the order of every stream's rows.  The types are the
        plan's and the tables' facts, as the root sort reads them; a NULL
        the plan pads with is off the path of every member carrying it."""
        if not self.aligned or self.tree.max_depth() > _WALK_DEPTH:
            return False
        carried = 0
        for spec in specs:
            units = {unit for path in spec.unit_paths.values()
                     for unit in path}
            members = {member for unit in units for member in unit.members}
            if any(not members.isdisjoint(node.children)
                   for node in self._loose & members) or any(
                    member.children and any(
                        stv.level == member.level for stv in member.key_args)
                    for unit in units for member in unit.members[1:]):
                return False
            carried += len(members)
        if carried != len(self.tree.nodes):
            return False
        table = database.table
        kinds = {}
        for spec in specs:
            for name, (types, sources, _) in zip(spec.column_names,
                                                 spec.column_facts):
                if name in self._key_names:
                    found = kinds.setdefault(name, set())
                    found.update(t for t in types if t is not NoneType)
                    found.update(*[table(source).value_types(column)
                                   for source, column in sources])
        return all(len(found) <= 1 and NoneType not in found
                   for found in kinds.values())

    def walk_facts(self, specs, database):
        """What the integration's ``walk`` takes for a run of ``specs``'
        streams over ``database``: False where :meth:`walks` does not
        allow the walk, else per spec the text columns the walk writes as
        they are.  Those are the columns whose values the plan takes only
        from table columns that hold nothing but plain text
        (:meth:`Table.plain_text
        <repro.relational.table.Table.plain_text>`), adding none of its
        own but NULLs: facts of the plan and the tables, never of the
        rows."""
        if not self.walks(specs, database):
            return False
        table = database.table
        facts = []
        for spec in specs:
            plain = []
            for name, (types, sources, _) in zip(spec.column_names,
                                                 spec.column_facts):
                if name in self._text_names and sources and not (
                        set(types) - {NoneType}) and all(
                        table(source).plain_text(column)
                        for source, column in sources):
                    plain.append(name)
            facts.append(tuple(plain))
        facts = tuple(facts)
        # One object per value, which the walk holds while it runs.
        return _WALK_FACTS.setdefault(facts, facts)

    def instance_key(self, node, values):
        """The key of ``node``'s instance with Skolem arguments ``values``
        (stv name -> value) — the uncompiled definition the decoders' key
        templates reproduce."""
        raw = []
        for kind, what in self.entries:
            if kind == "L":
                level = what
                raw.append(node.index[level - 1] if level <= node.level else None)
            else:
                raw.append(values.get(what.name))
        return flat_key(raw)

    def decoder(self, spec):
        """The :class:`StreamDecoder` for ``spec``'s shape (its columns and
        its units' member nodes), built on first use.  Two generators'
        specs of one subtree have equal shapes, so the cache is keyed by
        shape, not by spec object.  A view served under a handful of plans
        has a handful of shapes, but the shapes of a tree grow with its
        partitions, so the cache keeps the 256 most recently used; their
        code is compiled once per process
        (:data:`~repro.relational.codegen.CODE`)."""
        shape = stream_key(spec)
        decoder = self._decoders.get(shape)
        if decoder is None:
            decoder = StreamDecoder(spec, shape, self)
            self._decoders.store(shape, decoder)
        return decoder


def tuple_getter(indices):
    """``sequence -> tuple(sequence[i] for i in indices)`` as one C call
    where :func:`operator.itemgetter` allows it (it returns a bare item,
    not a tuple, for a single index).  A None index stands for an item
    the sequence does not carry and yields None."""
    if None in indices:
        return lambda sequence: tuple(
            [None if i is None else sequence[i] for i in indices]
        )
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (only,) = indices
        return lambda sequence: (sequence[only],)
    return lambda sequence: ()


class StreamDecoder:
    """One stream shape against a layout: its generated decoder
    (:mod:`repro.xmlgen.kernel`, shared by every equal shape in the
    process), its part of a :class:`Walk`'s code key and the splice's
    group check.

    :meth:`items` is the generated decoder, looked up once and then held
    (code only), :meth:`decode` the same as :class:`Instance` objects.
    """

    def __init__(self, spec, shape, layout):
        self._spec, self._shape, self._tree = spec, shape, layout.shape
        positions = {name: i for i, name in enumerate(spec.column_names)}
        members = [
            member
            for path in spec.unit_paths.values()
            for unit in path
            for member in unit.members
        ]
        # A top-level *group* is the rows sharing the root's key values.
        # It decodes alone exactly as inside the stream when every member
        # carries those keys (so no member's memo or pending instance
        # crosses a group boundary, and the tagger's stack is empty
        # there), the rows sort by them first, and equal keys cannot
        # differ in type (a DECIMAL holds 2 and 2.0).
        root_keys = [stv.name for stv in layout.tree.root.key_args]
        sound = (
            root_keys
            and {s.name for s in spec.stvs if s.level == 1} <= set(root_keys)
            and set(root_keys) <= positions.keys()
            and all(stv.sql_type in _EXACT
                    for stv in layout.tree.root.key_args)
            and all(set(root_keys) <= {stv.name for stv in member.args}
                    for member in members)
        )
        #: ``row -> `` its group's key (one value, or a tuple of several),
        #: None when the shape fails the check above.
        self.group_of = (
            itemgetter(*[positions[name] for name in root_keys])
            if sound else None
        )
        #: Row positions of the columns whose equal values may still
        #: print differently (``2 == 2.0``, ``0.0 == -0.0``).
        self.inexact = tuple(
            i for i, column in enumerate(spec.plan.columns())
            if column.sql_type not in _EXACT
        )
        self._decode = None

    def items(self, rows, label):
        """The ``(key, node id, term)`` items of ``rows``, in document
        order, keyed flat (:class:`ComparatorLayout`); ``label`` names the
        stream in errors (equal shapes share one decoder, whatever their
        specs are called)."""
        if self._decode is None:
            self._decode = decoder_kernel(self._tree, self._spec, self._shape)
        return self._decode(rows, label)

    def decode(self, rows, label):
        """Yield the :class:`Instance` sequence of ``rows``, in order."""
        nodes = self._tree.nodes
        for key, node, term in self.items(rows, label):
            yield Instance(key, nodes[node], term)


def reference_decode(spec, rows, layout):
    """The decoder's definition, uncompiled: per row every member of every
    unit on its path, consecutive repeats dropped, keyed by
    :meth:`ComparatorLayout.instance_key`, sorted; those after the row's
    own position (its terminal unit's representative) wait until a row
    passes them.  The generated decoder must yield exactly this."""
    names = spec.column_names
    l_columns = [names.index(f"L{level}") for level in spec.l_levels]
    memo = {}
    pending = []
    for row in rows:
        terminal = []
        for column in l_columns:
            if row[column] is None:
                break
            terminal.append(row[column])
        path = spec.unit_paths.get(tuple(terminal))
        if path is None:
            if not terminal:
                raise PlanError("tuple with no L tag cannot be decoded")
            raise PlanError(
                f"no unit with index {tuple(terminal)} in stream {spec.label}")

        def instance(member):
            values = {stv.name: row[names.index(stv.name)]
                      for stv in member.args if stv.name in names}
            term = tuple(values.get(stv.name) for stv in member.args)
            return Instance(layout.instance_key(member, values), member, term)

        fresh = []
        for unit in path:
            for member in unit.members:
                candidate = instance(member)
                if memo.get(member.index) != candidate.term:
                    memo[member.index] = candidate.term
                    fresh.append(candidate)
        fresh.sort(key=_KEY)
        threshold = instance(path[-1].representative).key
        cut = bisect_right(fresh, threshold, key=_KEY)
        late = fresh[cut:]
        del fresh[cut:]
        cut = bisect_right(pending, threshold, key=_KEY)
        if cut:
            fresh += pending[:cut]
            del pending[:cut]
            fresh.sort(key=_KEY)
        pending += late
        pending.sort(key=_KEY)
        yield from fresh
    yield from pending


def decode_stream(spec, rows, layout):
    """Yield the :class:`Instance` sequence of one stream, in order: the
    generated decoder (:meth:`StreamDecoder.items`) as objects — what the
    event API (:class:`~repro.xmlgen.tagger.XmlTagger`) consumes.

    ``spec`` is a :class:`repro.core.sqlgen.StreamSpec`; ``rows`` its
    executed, sorted tuples, pulled lazily.  Memory is bounded by the
    view-tree size (one last-identity memo per member node plus at most
    one deferred instance per member).

    A reduced unit can carry a member *deeper* than some of the unit's
    children (e.g. a ``1``-labeled sibling merged in next to a ``*``
    branch).  That member's instance, reconstructed from a pass-through
    tuple, sorts *after* the tuple's terminal instance — and after child
    instances still to come — so it is deferred until the stream reaches
    its position (its group closes), keeping the emitted sequence
    nondecreasing.
    """
    return layout.decoder(spec).decode(rows, spec.label)


def merge_streams(instance_iterables):
    """K-way merge of per-stream instance sequences into document order
    (a single stream already is in document order)."""
    sources = list(instance_iterables)
    if len(sources) == 1:
        return iter(sources[0])
    return heapq.merge(*sources, key=_KEY)


def merge_run(run):
    """:func:`merge_streams` of a run's ``(decoder, rows, label)``
    streams, as generated decoders' ``(key, node id, term)`` items on
    flat keys: the heap merge, where :meth:`ComparatorLayout.walks` does
    not allow the walk."""
    sources = [decoder.items(rows, label) for decoder, rows, label in run]
    return sources[0] if len(sources) == 1 else heapq.merge(*sources,
                                                            key=_K0)


class Walk:
    """A run of streams that carry one component of the view tree each,
    every node once (one stream: the whole tree), where
    :meth:`ComparatorLayout.walks` allows it: its
    document order is a walk of the tree over the sorted rows, with no
    item, key, sort or merge (:func:`~repro.xmlgen.kernel.walk_kernel`).
    The run's ``(decoder, rows, label)`` are in spec order; rows None (a
    splice segment the stream has no rows in) walk as empty.  ``plain``
    is :meth:`ComparatorLayout.walk_facts`' tuple, per stream the text
    columns written as they are (anything else: every value escaped)."""

    __slots__ = ("decoders", "rows", "labels", "plain")

    def __init__(self, run, plain=None):
        self.decoders = tuple(decoder for decoder, _, _ in run)
        self.rows = tuple(() if rows is None else rows for _, rows, _ in run)
        self.labels = tuple(label for _, _, label in run)
        self.plain = plain if isinstance(plain, tuple) else ((),) * len(run)

    def kernel(self, indent, rooted):
        """The walk's code for this run's stream shapes, in spec order."""
        decoders = self.decoders
        return walk_kernel(decoders[0]._tree,
                           [decoder._spec for decoder in decoders],
                           tuple(decoder._shape for decoder in decoders),
                           indent, rooted, self.plain)


class XmlDocumentCache(BoundedCache):
    """LRU cache of fully tagged ``(xml, tagger)`` documents.

    The top layer of incremental maintenance: every partition of a view
    materializes the *identical* document (the system's central
    invariant) where its layout is aligned, so the key carries no
    partition there — only the serialization options and the dependency
    generations of every table the view reads (``XmlView._tag_cached``,
    which adds the plan where the layout is not aligned, keeps
    non-canonical output out and retires what a write orphans).
    ``max_bytes`` additionally
    bounds the cache by total document size (the serving layer's budget).
    """

    def __init__(self, max_entries=64, max_bytes=None):
        super().__init__("document_cache", max_entries=max_entries,
                         max_bytes=max_bytes,
                         size_of=lambda document: len(document[0]))
