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
<repro.xmlgen.tagger.XmlTagger.tag>`).
"""

import io
from itertools import chain, groupby
from math import copysign
from operator import attrgetter

from repro.common.ordering import flat_key
from repro.obs import obs_parts
from repro.relational.cache import BoundedCache
from repro.xmlgen.tagger import Document, integrate


class Tagging:
    """One finished document cut into its groups: the text, per stream the
    rows it was tagged from, and per group key, in document order,
    ``(start, stop, elements, implicit opens, depth, ranges)`` — its slice
    of the text, its tagger counts, and per stream its ``(first, stop)``
    rows (None where the stream has none)."""

    __slots__ = ("xml", "rows", "groups", "nbytes")

    def __init__(self, xml, rows, groups):
        self.xml = xml
        self.rows = rows
        self.groups = groups
        self.nbytes = len(xml) + 8 * sum(map(len, rows)) + 200 * len(groups)


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
                   previous=None, obs=None):
    """Tag executed ``streams`` into ``(xml, counts, tagging, reused)``,
    tagging again only the groups whose rows differ from ``previous`` (a
    :class:`Tagging` of the same decoders and serialization, or None) and
    copying the text of the ``reused`` others.

    Returns None — tag the ordinary way, keep nothing — when a shape fails
    the group check, when an indented document has no root tag (its first
    element lacks the others' line break), or when the tagger's top-level
    elements are not one per group, in the groups' order.

    With ``obs`` on, :func:`~repro.xmlgen.tagger.integrate`'s spans cover
    the re-tagged rows only, inside a ``splice`` span (``groups``,
    ``reused``, ``retagged``; counted as ``splice.reused`` /
    ``splice.retagged``) when there was a ``previous``."""
    if root_tag is None and indent is not None or None in (
            decoder.group_of for decoder in decoders):
        return None
    single = len(layout.tree.root.key_args) == 1
    rows = tuple(stream.rows for stream in streams)
    where = order = segments = None

    def reusable(key):
        """Every stream has the same rows for ``key`` as last time."""
        old = previous.groups.get(key)
        if old is None:
            return False
        for i, was in enumerate(old[5]):
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
        the runs to tag."""
        nonlocal where, order, segments
        where = [_row_groups(stream_rows, decoder.group_of, single)
                 for decoder, stream_rows in zip(decoders, rows)]
        # Document order.
        order = sorted(set(chain.from_iterable(where)), key=flat_key)
        # Consecutive groups of one fate form a segment: copied, or
        # decoded, merged and tagged in one run.
        segments = [(reuse, list(keys)) for reuse, keys in groupby(
            order, reusable if previous is not None else lambda key: False)]
        runs = []
        for reuse, keys in segments:
            if not reuse:
                runs.append([])
                for decoder, spec, stream_rows, spans in zip(
                        decoders, specs, rows, where):
                    present = [spans[key] for key in keys if key in spans]
                    if present:
                        runs[-1].append((
                            decoder,
                            stream_rows[present[0][0]:present[-1][1]],
                            spec.label))
        return runs

    sink = io.StringIO()
    document = Document(layout, sink, indent, root_tag)
    tell = sink.tell
    groups = {}
    unsound = []

    def ranges(key):
        return tuple(spans.get(key) for spans in where)

    def tag(feeds):
        """Write the document; returns the elements and characters it did
        not copy."""
        elements = copied = 0
        feeds = iter(feeds)
        document.open()
        for reuse, keys in segments:
            if reuse:
                for key in keys:
                    start, stop, written, implicit, depth, _ = \
                        previous.groups[key]
                    at = tell()
                    document.copy(previous.xml[start:stop], written,
                                  implicit, depth)
                    copied += stop - start
                    groups[key] = (at, at + stop - start, written, implicit,
                                   depth, ranges(key))
                continue
            marks = []
            at = tell()
            document.tag(next(feeds), marks)
            # One top-level element per group, in the groups' order.
            if [mark[0] for mark in marks] != keys:
                unsound.append(keys)
                return elements, 0
            written = implicit = 0
            for key, stop, elements_to, implicit_to, depth in marks:
                groups[key] = (at, stop, elements_to - written,
                               implicit_to - implicit, depth, ranges(key))
                at, written, implicit = stop, elements_to, implicit_to
            elements += written
        document.close()
        return elements, tell() - copied

    tracer, metrics = obs_parts(obs)
    if previous is None:
        integrate(obs, document.counts, len(specs), cut, tag)
        reused = 0
    else:
        with tracer.span("splice") as span:
            integrate(obs, document.counts, len(specs), cut, tag)
            reused = sum(len(keys) for reuse, keys in segments if reuse)
            span.set(groups=len(order), reused=reused,
                     retagged=len(order) - reused)
        metrics.inc("splice.reused", reused)
        metrics.inc("splice.retagged", len(order) - reused)
    if unsound:
        return None
    xml = sink.getvalue()
    return xml, document.counts, Tagging(xml, rows, groups), reused
