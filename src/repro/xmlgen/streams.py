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

from repro.common.errors import PlanError
from repro.common.ordering import flat_key
from repro.relational.cache import BoundedCache
from repro.relational.types import SqlType
from repro.xmlgen.kernel import (
    TreeShape,
    decoder_kernel,
    stream_key,
    stream_kernel,
)

_KEY = attrgetter("key")
_K0 = itemgetter(0)
#: Column types whose equal values are one Python type and print alike.
_EXACT = frozenset(
    (SqlType.INTEGER, SqlType.VARCHAR, SqlType.CHAR, SqlType.DATE)
)


class Instance:
    """One occurrence of a view-tree node in the output document."""

    __slots__ = ("key", "node", "term")

    def __init__(self, key, node, term):
        self.key = key    # global comparator key (see ComparatorLayout)
        self.node = node  # ViewTreeNode
        self.term = term  # the Skolem-term argument values, in node.args order

    def identity(self):
        """The full Skolem-term identity (all arguments) — what fuses or
        distinguishes element instances."""
        return self.term

    @property
    def values(self):
        """stv name -> value, for the node's Skolem-term arguments."""
        return {
            stv.name: value for stv, value in zip(self.node.args, self.term)
        }

    def __repr__(self):
        return f"Instance({self.node.sfi}{self.term!r})"


class ComparatorLayout:
    """The interleaved global sort layout for a view tree.

    An instance key is a flat tuple ``(tag, value, tag, value, ...)`` with
    one pair per layout entry (:func:`repro.common.ordering.flat_key`):
    NULLs first, compared entirely in C.  The layout also owns the
    :class:`StreamDecoder` of every stream shape decoded against it, kept
    by whoever keeps the layout (an :class:`~repro.core.silkroute.XmlView`
    does, for its lifetime).
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
    """One stream shape against a layout: the generated kernels of the
    shape (:mod:`repro.xmlgen.kernel`, shared by every equal shape in the
    process) and the splice's group check.

    :meth:`items` is the generated decoder, :meth:`decode` the same as
    :class:`Instance` objects, :meth:`writer` the single-stream kernel
    that writes the stream's markup itself.  Each is looked up once and
    then held (code only).
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
        self._writers = {}

    def items(self, rows, label):
        """The ``(key, node id, term)`` items of ``rows``, in document
        order; ``label`` names the stream in errors (equal shapes share
        one decoder, whatever their specs are called)."""
        if self._decode is None:
            self._decode = decoder_kernel(self._tree, self._spec,
                                          self._shape)
        return self._decode(rows, label)

    def decode(self, rows, label):
        """Yield the :class:`Instance` sequence of ``rows``, in order."""
        nodes = self._tree.nodes
        for key, node, term in self.items(rows, label):
            yield Instance(key, nodes[node], term)

    def writer(self, indent, rooted):
        """The kernel writing this shape's rows as markup alone (a plan of
        one stream, or a run only this stream has rows in)."""
        kernel = self._writers.get((indent, rooted))
        if kernel is None:
            kernel = self._writers[indent, rooted] = stream_kernel(
                self._tree, self._spec, self._shape, indent, rooted)
        return kernel


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


def merge_items(sources):
    """:func:`merge_streams` of generated decoders' ``(key, node id,
    term)`` items."""
    if len(sources) == 1:
        return iter(sources[0])
    return heapq.merge(*sources, key=_K0)


class CountingIterator:
    """Wrap an iterator and count the items that pass through.

    The observability layer's per-stream-free way to report how many
    merged instances the tagger consumed: wrapping costs one integer
    increment per instance and is only installed when tracing or metrics
    are enabled, keeping the default path untouched.
    """

    __slots__ = ("_it", "count")

    def __init__(self, iterable):
        self._it = iter(iterable)
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self.count += 1
        return item


class XmlDocumentCache(BoundedCache):
    """LRU cache of fully tagged ``(xml, tagger)`` documents.

    The top layer of incremental maintenance: every partition of a view
    materializes the *identical* document (the system's central
    invariant), so the key carries no partition — only the serialization
    options and the dependency generations of every table the view
    reads (``XmlView._tag_cached``, which also keeps non-canonical output
    out and retires what a write orphans).  ``max_bytes`` additionally
    bounds the cache by total document size (the serving layer's budget).
    """

    def __init__(self, max_entries=64, max_bytes=None):
        super().__init__("document_cache", max_entries=max_entries,
                         max_bytes=max_bytes,
                         size_of=lambda document: len(document[0]))


def instance_sources(specs, row_sources, layout):
    """One document-ordered instance sequence per stream: lazy
    :func:`decode_stream` generators, which pull rows on demand and keep
    the decode→merge pipeline in bounded memory."""
    return [
        decode_stream(spec, rows, layout)
        for spec, rows in zip(specs, row_sources)
    ]


def iter_instances(tree, specs, row_sources, layout=None):
    """The merged document-order instance iterator of a set of streams:
    :func:`merge_streams` over :func:`instance_sources`, with a fresh
    :class:`ComparatorLayout` of ``tree`` unless one is passed."""
    if layout is None:
        layout = ComparatorLayout(tree)
    return merge_streams(instance_sources(specs, row_sources, layout))
