"""Re-tagging only what a write changed: the top-level splice.

The tagger emits a document as a sequence of top-level elements in the
sort order of the rows (Sec. 3.3).  The rows sharing the view-tree root's
key values — a *group* — make one run of top-level elements, and where
every stream's shape passes :attr:`StreamDecoder.group_of
<repro.xmlgen.streams.StreamDecoder.group_of>`'s check, a group decodes,
merges and tags alone exactly as inside the whole document.  So a
re-materialization tags again only the groups whose rows differ from the
last tagging's, and copies the others' text from the last document.  A
first tagging is the ordinary single pass, which marks where each
top-level element ends (:meth:`XmlTagger.tag
<repro.xmlgen.tagger.XmlTagger.tag>`); it cuts nothing until a
re-materialization reads it (:attr:`Tagging.groups`).
"""

import io
from itertools import chain, groupby
from math import copysign
from operator import attrgetter

from repro.common.ordering import flat_key
from repro.obs import NULL_SPAN, obs_parts
from repro.relational.cache import BoundedCache
from repro.xmlgen.tagger import Document, integrate


class Tagging:
    """One finished document cut into its groups: the text, per stream the
    rows it was tagged from, and per group key, in document order,
    ``(start, stop, elements, implicit opens, depth, ranges)`` — its slice
    of the text, its tagger counts, and per stream its ``(first, stop)``
    rows (None where the stream has none).

    A first tagging (:meth:`first`) keeps the tagger's top-level marks
    instead, and cuts them into its groups when a splice first reads
    :attr:`groups`: only a later re-materialization needs them."""

    __slots__ = ("xml", "rows", "nbytes", "_groups", "_cut")

    def __init__(self, xml, rows, groups, cut=None):
        self.xml = xml
        self.rows = rows
        self._groups = groups
        self._cut = cut
        top = len(groups) if cut is None else len(cut[0])
        self.nbytes = len(xml) + 8 * sum(map(len, rows)) + 200 * top

    @classmethod
    def first(cls, xml, rows, marks, start, group_ofs, single):
        """A whole-document tagging with its ``marks``, whose first
        top-level element starts at ``start``; ``group_ofs`` are its
        streams' group keys."""
        return cls(xml, rows, None, (marks, start, group_ofs, single))

    @property
    def groups(self):
        """The groups, or None where the tagger's top-level elements are
        not one per group in the groups' order: such a tagging is never
        spliced."""
        cut = self._cut
        if cut is not None:
            self._groups = _cut(self.rows, *cut)
            self._cut = None
        return self._groups


class FragmentCache(BoundedCache):
    """The last :class:`Tagging` per (root tag, indent, stream decoders),
    bounded by entries and by weight; ``hits``/``misses`` count the groups
    copied/tagged, not lookups."""

    def __init__(self, max_entries=16, max_bytes=32 * 1024 * 1024):
        super().__init__("instance_cache", max_entries=max_entries,
                         max_bytes=max_bytes, size_of=attrgetter("nbytes"))

    def count(self, reused, tagged):
        with self._lock:
            self._counts["hits"] += reused
            self._counts["misses"] += tagged


def _row_groups(rows, group_of, single):
    """``{key: (first, stop)}`` of ``rows``' runs of one group key, in row
    order (the rows sort by it first, so each key is one run): the last
    and first position of each key, found by two dicts built in C."""
    keys = list(map(group_of, rows))
    stops = dict(zip(keys, range(1, len(keys) + 1)))
    firsts = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return {(key,) if single else key: (firsts[key], stop)
            for key, stop in stops.items()}


def _groups_in_order(rows, group_ofs, single):
    """Per stream its :func:`_row_groups`, and every group key in
    document order."""
    where = [_row_groups(stream_rows, group_of, single)
             for group_of, stream_rows in zip(group_ofs, rows)]
    return where, sorted(set(chain.from_iterable(where)), key=flat_key)


def _marked(groups, marks, at, where):
    """Enter into ``groups`` the run tagged from ``at`` whose top-level
    ``marks`` are one per group; returns the elements it wrote."""
    written = implicit = 0
    for key, stop, elements_to, implicit_to, depth in marks:
        groups[key] = (at, stop, elements_to - written,
                       implicit_to - implicit, depth,
                       tuple(spans.get(key) for spans in where))
        at, written, implicit = stop, elements_to, implicit_to
    return written


def _cut(rows, marks, start, group_ofs, single):
    """A first tagging's groups from its ``marks`` (:attr:`Tagging.groups`):
    a read of every row, as a splice's own cut."""
    where, order = _groups_in_order(rows, group_ofs, single)
    if [mark[0] for mark in marks] != order:
        return None
    groups = {}
    _marked(groups, marks, start, where)
    return groups


def _same_rows(old, new, inexact):
    """Equal rows that print alike: ``2 == 2.0`` and ``0.0 == -0.0``, so
    the values at the ``inexact`` positions must agree in type and sign
    too."""
    if old != new:
        return False
    for a, b in zip(old, new) if inexact else ():
        if a is not b:
            for i in inexact:
                x, y = a[i], b[i]
                if type(x) is not type(y) or (
                        type(x) is float and not x
                        and copysign(1.0, x) != copysign(1.0, y)):
                    return False
    return True


def splice_streams(layout, specs, streams, decoders, root_tag, indent,
                   previous=None, obs=None, walk=False):
    """Tag executed ``streams`` into ``(xml, counts, tagging, reused,
    retagged)``, tagging again only the groups whose rows differ from
    ``previous`` (a :class:`Tagging` of the same decoders and
    serialization, or None) and copying the text of the ``reused``
    others.  Without a ``previous`` whose groups the tagger confirmed,
    the streams are tagged whole and the tagging is kept uncut
    (:meth:`Tagging.first`); its marks are the groups ``retagged``.

    Returns None — tag the ordinary way, keep nothing — when a shape fails
    the group check, when an indented document has no root tag (its first
    element lacks the others' line break), or when the re-tagged
    top-level elements are not one per group, in the groups' order.

    The runs are walked where ``walk`` is true.
    With ``obs`` on, :func:`~repro.xmlgen.tagger.integrate`'s spans cover
    the re-tagged rows only, inside a ``splice`` span (``groups``,
    ``reused``, ``retagged``; counted as ``splice.reused`` /
    ``splice.retagged``) when there was a ``previous``."""
    group_ofs = tuple(decoder.group_of for decoder in decoders)
    if root_tag is None and indent is not None or None in group_ofs:
        return None
    single = len(layout.tree.root.key_args) == 1
    rows = tuple(stream.rows for stream in streams)
    old = where = segments = start = None

    def reusable(key):
        """Every stream has the same rows for ``key`` as last time."""
        was_group = old.get(key)
        if was_group is None:
            return False
        for i, was in enumerate(was_group[5]):
            now = where[i].get(key)
            if now is None or was is None:
                if now is not was:
                    return False
            elif not _same_rows(previous.rows[i][was[0]:was[1]],
                                rows[i][now[0]:now[1]], decoders[i].inexact):
                return False
        return True

    def cut():
        """Group the rows (a read of every row: decoding work) and return
        the runs to tag: the whole streams where nothing can be reused."""
        nonlocal old, where, segments
        if previous is not None:
            old = previous.groups
        if not old:
            return [[(decoder, stream_rows, spec.label) for decoder, spec,
                     stream_rows in zip(decoders, specs, rows)]]
        where, order = _groups_in_order(rows, group_ofs, single)
        # Consecutive groups of one fate form a segment: copied, or
        # decoded, merged and tagged in one run.
        segments = [(reuse, list(keys))
                    for reuse, keys in groupby(order, reusable)]
        runs = []
        for reuse, keys in segments:
            if not reuse:
                runs.append([])
                for decoder, spec, stream_rows, spans in zip(
                        decoders, specs, rows, where):
                    present = [spans[key] for key in keys if key in spans]
                    runs[-1].append((
                        decoder,
                        stream_rows[present[0][0]:present[-1][1]]
                        if present else None,
                        spec.label))
        return runs

    sink = io.StringIO()
    document = Document(layout, sink, indent, root_tag)
    tell = sink.tell
    groups = {}
    marks = []
    unsound = []

    def tag(feeds):
        """Write the document; returns the elements and characters it did
        not copy."""
        nonlocal start
        elements = copied = 0
        feeds = iter(feeds)
        document.open()
        if segments is None:
            start = tell()
            document.tag(next(feeds), marks)
            elements = document.counts.elements_written
        for reuse, keys in segments or ():
            if reuse:
                for key in keys:
                    begin, stop, written, implicit, depth, _ = old[key]
                    at = tell()
                    document.copy(previous.xml[begin:stop], written,
                                  implicit, depth)
                    copied += stop - begin
                    groups[key] = (at, at + stop - begin, written, implicit,
                                   depth, tuple(
                                       spans.get(key) for spans in where))
                continue
            marked = []
            at = tell()
            document.tag(next(feeds), marked)
            # One top-level element per group, in the groups' order.
            if [mark[0] for mark in marked] != keys:
                unsound.append(keys)
                return elements, 0
            elements += _marked(groups, marked, at, where)
        document.close()
        return elements, tell() - copied

    tracer, metrics = obs_parts(obs)
    with (NULL_SPAN if previous is None else tracer.span("splice")) as span:
        integrate(obs, document.counts, len(specs), cut, tag, walk)
        if unsound:
            return None
        xml = sink.getvalue()
        if segments is None:
            tagging = Tagging.first(xml, rows, marks, start, group_ofs,
                                    single)
            reused, retagged = 0, len(marks)
        else:
            tagging = Tagging(xml, rows, groups)
            reused = sum(len(keys) for reuse, keys in segments if reuse)
            retagged = len(groups) - reused
        span.set(groups=reused + retagged, reused=reused,
                 retagged=retagged)
    if previous is not None:
        metrics.inc("splice.reused", reused)
        metrics.inc("splice.retagged", retagged)
    return xml, document.counts, tagging, reused, retagged
