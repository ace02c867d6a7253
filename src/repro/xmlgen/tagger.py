"""The constant-space tagging algorithm (Sec. 3.3).

The tagger consumes the merged instance stream, maintaining a stack of open
elements identified by (view-tree node, Skolem-term key values).  For each
incoming instance it closes elements down to the deepest still-matching
ancestor, then opens the instance's missing ancestors and the instance
itself, emitting the element's text content as it opens.

Memory is the stack (bounded by view-tree depth) plus the per-stream decode
memos (bounded by node count) — independent of database size, which is the
paper's scaling argument.  ``max_stack_depth`` and ``implicit_opens`` are
exposed so tests can verify both the bound and that every element was
opened from its own instance (an implicit open would indicate a plan whose
streams do not cover some node).
"""

import io

from repro.core.viewtree import Stv
from repro.obs import obs_parts
from repro.xmlgen.kernel import tag_kernel
from repro.xmlgen.serializer import FirstLine, XmlWriter, closing, opening
from repro.xmlgen.streams import (
    ComparatorLayout,
    Walk,
    merge_run,
    tuple_getter,
)


class XmlTagger:
    """Nests and tags a merged instance stream."""

    def __init__(self, tree, writer, root_tag=None):
        self.tree = tree
        self.writer = writer
        self.root_tag = root_tag
        self.max_stack_depth = 0
        self.implicit_opens = 0
        self.elements_written = 0
        self._chains = {}  # node -> _chain(node)

    def run(self, instances):
        """Consume the merged instance stream and emit the document: the
        root tag, if any, around :meth:`tag`."""
        if self.root_tag is not None:
            self.writer.start_element(self.root_tag)
        self.tag(instances)
        if self.root_tag is not None:
            self.writer.end_element(self.root_tag)
        return self.writer

    def tag(self, instances, marks=None):
        """Nest and tag ``instances``, from an empty stack to an empty
        stack.

        Stack frames carry two identities: the *key* identity (the key
        arguments — reconstructible from any descendant tuple, used to
        match ancestors) and the *full* Skolem-term identity (all
        arguments — available on the element's own instance, used to
        distinguish siblings that share key values, e.g. the simplified
        leaf terms of Sec. 3.1).

        The stack is one root path; an instance keeps open the prefix its
        chain shares with it, up to the shallowest frame that does not
        match.  Frames are checked from the deepest candidate up, and on a
        *nested* chain (:meth:`_chain`) the first match ends the search:
        every frame below it matches too.

        ``marks``, a list, gets one entry each time the stack returns to
        depth 0 — after every top-level element: ``(key identity, sink
        position, elements, implicit opens, depth)``, the last three the
        running counts of this call and the deepest stack since the
        previous mark.  The writer's sink must then be able to ``tell``."""
        writer = self.writer
        start_element = writer.start_element
        end_element = writer.end_element
        text = writer.text
        tell = None if marks is None else writer.sink.tell
        chains = self._chains
        stack = []  # (node, key_identity, full_identity_or_None)
        deepest = max_depth = written = implicit = 0
        for instance in instances:
            node = instance.node
            entry = chains.get(node)
            if entry is None:
                entry = chains[node] = self._chain(node)
            chain, nested = entry
            term = instance.term
            depth = len(stack)
            length = len(chain)
            common = level = depth if depth < length else length
            while level:
                level -= 1
                frame = stack[level]
                element, key_of, _ = chain[level]
                if frame[0] is not element or frame[1] != key_of(term) or (
                        element is node and frame[2] not in (None, term)):
                    common = level
                elif nested:
                    break
            if common == length:
                continue  # duplicate instance; element already open
            if depth > common:
                while depth > common:
                    closed = stack.pop()
                    end_element(closed[0].tag)
                    depth -= 1
                if not common and tell is not None:
                    marks.append(
                        (closed[1], tell(), written, implicit, max_depth))
                    deepest = max(deepest, max_depth)
                    max_depth = 0
            for element, key_of, contents in chain[common:]:
                own = element is node
                if not own:
                    implicit += 1
                stack.append((element, key_of(term), term if own else None))
                start_element(element.tag)
                for index, literal in contents:
                    if index is None:
                        text(literal)
                    else:
                        value = term[index]
                        if value is not None:
                            text(value)
            written += length - common
            if length > max_depth:
                max_depth = length
        if stack:
            while stack:
                closed = stack.pop()
                end_element(closed[0].tag)
            if tell is not None:
                marks.append((closed[1], tell(), written, implicit, max_depth))
        self.elements_written += written
        self.implicit_opens += implicit
        self.max_stack_depth = max(self.max_stack_depth, deepest, max_depth)

    def _chain(self, node):
        """What opening ``node``'s instance takes, worked out once per
        node and tagger: ``(chain, nested)``, the chain holding for every
        ancestor-or-self, root first, ``(element node, key identity
        picker, content plan)``.  Key identities come from the instance's
        own term; the content plan is a tuple of ``(position in the term,
        None)`` for a displayed variable and ``(None, text)`` for literal
        text.  ``nested``: each element's key arguments include its
        parent's — wherever both have automatic Skolem functions (a
        child's scope extends its parent's), not always next to an
        ``ID=F(...)``."""
        at = {stv.name: i for i, stv in enumerate(node.args)}
        chain = []
        nested = True
        element = node
        while element is not None:
            contents = []
            for content in element.contents:
                if not isinstance(content, Stv):
                    contents.append((None, content))
                elif content.name in at:
                    contents.append((at[content.name], None))
            chain.append((
                element,
                tuple_getter([at.get(s.name) for s in element.key_args]),
                tuple(contents),
            ))
            element = element.parent
            if element is not None and not set(element.key_args) <= set(
                    chain[-1][0].key_args):
                nested = False
        chain.reverse()
        return tuple(chain), nested


class TagCounts:
    """What a tagging wrote: elements, implicit opens (an element opened
    for a descendant's instance before its own, which would mean a plan
    whose streams do not cover some node) and the deepest stack — the
    counters of :class:`XmlTagger`, kept by the generated kernels — and
    the instances the kernels decoded and tagged (none for copied text)."""

    __slots__ = ("root_tag", "elements_written", "implicit_opens",
                 "max_stack_depth", "instances")

    def __init__(self, root_tag=None):
        self.root_tag = root_tag
        self.elements_written = self.implicit_opens = 0
        self.max_stack_depth = self.instances = 0

    def add(self, written, implicit, depth, instances=0):
        self.elements_written += written
        self.implicit_opens += implicit
        self.max_stack_depth = max(self.max_stack_depth, depth)
        self.instances += instances


class Document:
    """One document written into ``sink`` by the generated kernels
    (:mod:`repro.xmlgen.kernel`), :class:`XmlTagger`'s twin: the root tag
    around runs of a plan's streams — a
    :class:`~repro.xmlgen.streams.Walk` by the walk of the tree, others
    by the tag step over their merged items — and copied text.  Its
    markup is :class:`~repro.xmlgen.serializer.XmlWriter`'s, compact or
    indented, character for character."""

    def __init__(self, layout, sink, indent, root_tag):
        self.layout, self.indent, self.root_tag = layout, indent, root_tag
        self.write = sink.write if indent is None else FirstLine(sink.write)
        self.tell = getattr(sink, "tell", None)
        self.counts = TagCounts(root_tag)
        self._children = False

    def open(self):
        if self.root_tag is not None:
            self.write(opening(self.root_tag, self.indent))

    def run(self, feed):
        """Write the document of one run: the root tag around
        :meth:`tag`."""
        self.open()
        self.tag(feed)
        self.close()

    def tag(self, feed, marks=None):
        """Write one run's elements: ``feed`` is a
        :class:`~repro.xmlgen.streams.Walk` or an iterator of merged
        items.  ``marks`` gets the tagger's top-level marks
        (:meth:`XmlTagger.tag`)."""
        rooted = self.root_tag is not None
        if type(feed) is Walk:
            counts = feed.kernel(self.indent, rooted)(
                feed.rows, feed.labels, self.write, self.tell, marks)
        else:
            counts = tag_kernel(self.layout.shape, self.indent, rooted)(
                feed, self.write, self.tell, marks)
        self.counts.add(*counts)
        self._children = self._children or counts[0] > 0

    def copy(self, text, written, implicit, depth):
        """Write ``text``, finished top-level elements of an earlier
        document, with their counts."""
        self.write(text)
        self.counts.add(written, implicit, depth)
        self._children = self._children or bool(text)

    def close(self):
        if self.root_tag is not None:
            self.write(closing(self.root_tag, self.indent,
                               children=self._children))


def tag_streams(tree, specs, streams, root_tag="view", indent=None,
                writer=None, obs=None, layout=None, walk=False):
    """Decode, merge, and tag a set of executed streams.

    ``specs`` are the :class:`~repro.core.sqlgen.StreamSpec` objects and
    ``streams`` the matching executed row sources (any iterables of tuples —
    materialized ``TupleStream`` lists or lazy ``TupleCursor`` pipelines;
    with cursors and a sink-backed ``writer`` the whole
    decode→merge→tag→serialize path runs in constant memory).
    Returns ``(xml_text, counts)`` when the writer's ``sink`` is an
    in-memory ``StringIO``, else ``(writer, counts)``; ``counts`` has
    :class:`XmlTagger`'s counters.

    The generated kernels (:class:`Document`) write the document into
    the sink of ``writer``, a fresh
    :class:`~repro.xmlgen.serializer.XmlWriter` (by default, one over a
    ``StringIO``).

    ``layout`` is the tree's :class:`~repro.xmlgen.streams.ComparatorLayout`
    — pass the one a long-lived caller keeps, so its stream decoders are
    reused; by default a fresh one is built.

    ``obs`` (an :class:`~repro.obs.ObsOptions` session) records the
    integration as :func:`integrate` does, walking the streams where
    ``walk`` (:meth:`~repro.xmlgen.streams.ComparatorLayout.walk_facts`)
    says.
    """
    if layout is None:
        layout = ComparatorLayout(tree)
    writer = writer or XmlWriter(indent=indent)
    run = [(layout.decoder(spec), rows, spec.label)
           for spec, rows in zip(specs, streams)]
    document = Document(layout, writer.sink, writer.indent, root_tag)
    counts = document.counts

    def tag(feeds):
        before = _chars_written(writer)
        document.run(feeds[0])
        after = _chars_written(writer)
        written = None if None in (before, after) else after - before
        return counts.elements_written, written

    integrate(obs, counts, len(specs), [run], tag, walk)
    if isinstance(getattr(writer, "sink", None), io.StringIO):
        return writer.getvalue(), counts
    return writer, counts


def integrate(obs, counts, streams, runs, tag, walk=False):
    """Merge and tag ``runs`` — per run, ``(decoder, rows, label)`` of
    some of the ``streams`` streams, or a function returning them, called
    as part of decoding — by ``tag(feeds)``, which gets one
    feed per run and returns the ``(elements, characters)`` it wrote
    (characters None when the sink cannot tell).  A feed is what
    :meth:`Document.run` takes: where ``walk`` (True, or
    :meth:`~repro.xmlgen.streams.ComparatorLayout.walk_facts`' columns
    written as they are), the run as a
    :class:`~repro.xmlgen.streams.Walk`; else its streams without rows
    (rows None) left out, the streams' generated decoders merged on flat
    keys (:func:`~repro.xmlgen.streams.merge_run`).  A plan of several
    streams counts its runs as ``merge.walks`` or ``merge.flat_keys``.

    With ``obs`` (an :class:`~repro.obs.ObsOptions` session) on, the same
    feeds run inside spans: ``decode`` (the runs taken apart; decoding is
    lazy, and a walk's is fused into its kernel), then ``merge`` around
    ``tag``.  Both the ``decode`` and ``merge`` spans and
    counters carry the instances tagged (:attr:`TagCounts.instances`);
    ``tag`` carries what was written."""
    tracer, metrics = obs_parts(obs)
    traced = tracer.enabled or metrics.enabled

    def feed(run):
        if walk:
            return Walk(run, walk)
        return merge_run([stream for stream in run if stream[1] is not None])

    if not traced:
        tag([feed(run) for run in (runs() if callable(runs) else runs)])
        return
    with tracer.span("decode", streams=streams) as decode_span:
        feeds = [feed(run) for run in (runs() if callable(runs) else runs)]
    if streams > 1:
        metrics.inc("merge.walks" if walk else "merge.flat_keys", len(feeds))
    before = counts.instances
    with tracer.span("merge", streams=streams) as merge_span:
        with tracer.span("tag", root_tag=counts.root_tag) as tag_span:
            elements, written = tag(feeds)
        tag_span.set(elements=elements,
                     max_stack_depth=counts.max_stack_depth)
        instances = counts.instances - before
        merge_span.set(instances=instances)
    decode_span.set(instances=instances)
    metrics.inc("decode.instances", instances)
    metrics.inc("merge.instances", instances)
    metrics.inc("tag.elements", elements)
    if written is not None:
        metrics.inc("tag.bytes", written)
        tag_span.set(bytes=written)


def _chars_written(writer):
    """How many characters ``writer``'s sink has received so far, or None
    when the sink cannot say (an opaque external stream).  Never
    ``getvalue()``, which copies the whole document."""
    sink = getattr(writer, "sink", None)
    chars = getattr(sink, "chars", None)
    if chars is not None:
        return chars
    tell = getattr(sink, "tell", None)
    if tell is not None:
        try:
            return tell()
        except (OSError, ValueError):
            pass
    return None
