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
from functools import cmp_to_key
from operator import attrgetter, itemgetter

from repro.common.errors import PlanError
from repro.common.ordering import TYPE_TAGS, flat_key
from repro.relational.cache import BoundedCache
from repro.relational.types import SqlType

_KEY = attrgetter("key")
_TAG_OF = TYPE_TAGS.__getitem__
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
    compiled :class:`StreamDecoder` of every stream shape decoded against
    it, so whoever keeps the layout (an :class:`~repro.core.silkroute.XmlView`
    does, for its lifetime) compiles each shape once.
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
        """The compiled :class:`StreamDecoder` for ``spec``'s shape (its
        columns and its units' member nodes), built on first use.  Two
        generators' specs of one subtree have equal shapes, so the cache
        is keyed by shape, not by spec object; a concurrent first use at
        worst compiles twice.  A view served under a handful of plans has
        a handful of shapes, but the shapes of a tree grow with its
        partitions, so the cache keeps the 256 most recently used (a
        compile is well under a millisecond)."""
        shape = (
            spec.column_names,
            tuple(spec.unit_paths),
            tuple(
                tuple(unit.members for unit in path)
                for path in spec.unit_paths.values()
            ),
        )
        decoder = self._decoders.get(shape)
        if decoder is None:
            decoder = StreamDecoder(spec, shape[0], self)
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
    """One stream shape, compiled: everything about decoding that does not
    depend on the rows, resolved ahead of time.

    Per row the decoder builds one *extended row*: the row itself, then
    the type tag of every key column, then the constants a key can hold
    (the NULL pair, the ``int`` tag, the ``L`` ordinals).  A member's
    identity and its comparator key are then each a single
    :func:`~operator.itemgetter` call over the extended row — the
    constant parts of a key (its ``L`` tags, the variables the member
    does not carry) are positions in the constant tail.
    """

    def __init__(self, spec, column_names, layout):
        positions = {name: i for i, name in enumerate(column_names)}
        width = len(column_names)
        self._l_values = tuple_getter(
            [positions[f"L{level}"] for level in spec.l_levels]
        )
        key_columns = [
            stv.name for kind, stv in layout.entries
            if kind == "stv" and stv.name in positions
        ]
        self._key_columns = tuple_getter(
            [positions[name] for name in key_columns]
        )
        tag_at = {name: width + i for i, name in enumerate(key_columns)}
        null_tag = width + len(key_columns)
        null, int_tag, first_int = null_tag + 1, null_tag + 2, null_tag + 3
        members = {
            member.index: member
            for path in spec.unit_paths.values()
            for unit in path
            for member in unit.members
        }
        top = max(max(index) for index in members)
        self._constants = ("", None, TYPE_TAGS[int], *range(top + 1))

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
                    for member in members.values())
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

        steps = {}
        templates = {}
        for slot, (index, member) in enumerate(members.items()):
            carried = {stv.name for stv in member.args}
            template = templates[index] = []
            for kind, what in layout.entries:
                if kind == "L":
                    if what <= member.level:
                        template += (int_tag, first_int + index[what - 1])
                    else:
                        template += (null_tag, null)
                elif what.name in carried and what.name in positions:
                    template += (tag_at[what.name], positions[what.name])
                else:
                    template += (null_tag, null)
            term = tuple_getter(
                [positions.get(stv.name, null) for stv in member.args]
            )
            steps[index] = (slot, member, term, itemgetter(*template))
        self._slots = len(steps)

        def order(left, right):
            """``left``'s key against ``right``'s on every row (-1, 0, 1),
            None where a row value decides.  Tags and ordinals ascend in
            the constant tail (a NULL value is never reached: its tag
            decides first), so constant positions compare as values do."""
            for a, b in zip(templates[left], templates[right]):
                if a != b:
                    return None if min(a, b) < null_tag else (a > b) - (a < b)
            return 0

        # Terminal index -> (steps, key getter of the row's own position —
        # the terminal unit's representative —, late steps): where ``order``
        # decides the path, its members at or before that position and
        # those after it, each in key order; else all members and None.
        self._paths = {}
        for terminal, path in spec.unit_paths.items():
            indices = [m.index for unit in path for m in unit.members]
            rep = path[-1].representative.index
            table = {(a, b): order(a, b) for a in indices for b in indices}
            late = None
            if None not in table.values():
                indices.sort(key=cmp_to_key(lambda a, b: table[a, b]))
                late = tuple(steps[i] for i in indices if table[i, rep] > 0)
                indices = [i for i in indices if table[i, rep] <= 0]
            self._paths[terminal] = (tuple(steps[i] for i in indices), steps[rep][3], late)

    def decode(self, rows, label):
        """Yield the :class:`Instance` sequence of ``rows``, in order;
        ``label`` names the stream in errors (equal shapes share one
        decoder, whatever their specs are called)."""
        l_values_of = self._l_values
        key_columns_of = self._key_columns
        constants = self._constants
        paths = self._paths
        memo = [None] * self._slots   # last term emitted per member
        pending = []                  # deferred instances, sorted by key
        for row in rows:
            # The L tags up to the first NULL spell the terminal unit.
            terminal = l_values_of(row)
            if None in terminal:
                terminal = terminal[:terminal.index(None)]
            plan = paths.get(terminal)
            if plan is None:
                if not terminal:
                    raise PlanError("tuple with no L tag cannot be decoded")
                raise PlanError(
                    f"no unit with index {terminal} in stream {label}"
                )
            steps, threshold_of, late_steps = plan
            extended = (
                *row, *map(_TAG_OF, map(type, key_columns_of(row))),
                *constants,
            )
            fresh = []
            for slot, node, term_of, key_of in steps:
                term = term_of(extended)
                if memo[slot] != term:
                    memo[slot] = term
                    fresh.append(Instance(key_of(extended), node, term))
            # The row pins everything up to its own sort position — the
            # terminal unit's *representative* (whose index is the row's L
            # prefix).  Rows arrive in document order, so without
            # reduction that is all of ``fresh`` and nothing below runs.
            # A merged member deeper than the representative sorts after
            # rows still to come (e.g. a sibling subtree with a smaller
            # ordinal kept as its own unit): it waits in ``pending`` until
            # a row's position passes it.
            if late_steps is None:
                # Sort and split at the row's position, per row.
                if len(fresh) > 1:
                    fresh.sort(key=_KEY)
                threshold = threshold_of(extended)
                late = ()
                if pending or (fresh and fresh[-1].key > threshold):
                    cut = bisect_right(fresh, threshold, key=_KEY)
                    late = fresh[cut:]
                    del fresh[cut:]
            else:
                # Sorted and split when the decoder was compiled.
                late = []
                for slot, node, term_of, key_of in late_steps:
                    term = term_of(extended)
                    if memo[slot] != term:
                        memo[slot] = term
                        late.append(Instance(key_of(extended), node, term))
                if pending:
                    threshold = threshold_of(extended)
            if pending:
                cut = bisect_right(pending, threshold, key=_KEY)
                if cut:
                    fresh += pending[:cut]
                    del pending[:cut]
                    fresh.sort(key=_KEY)
            if late:
                pending += late
                pending.sort(key=_KEY)
            yield from fresh
        yield from pending


def decode_stream(spec, rows, layout):
    """Yield the :class:`Instance` sequence of one stream, in order.

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
