"""XML integration and tagging (Sec. 3.3).

Turns the sorted partitioned tuple streams back into the XML document in
one constant-space pass: each stream carries one component of the view
tree, and a walk of the tree over the streams
(:class:`~repro.xmlgen.streams.Walk`) reads each node's instances from
its component's current row and tags them under the open parent
instance, in the tree's key order.  Where the walk cannot go
(:meth:`ComparatorLayout.walks`: a tree that is not aligned or is too
deep, a NULL or two-typed key column, among others) each stream is
decoded into *node instances*, the per-stream sequences are merged on flat keys and the
tagger nests and tags them.  The required memory depends only on the
view-tree size, never on the database size.  All of it runs as generated code
(:mod:`repro.xmlgen.kernel`); :class:`XmlTagger` is the event API and the
reference.

Also provides an incremental XML serializer and a small DTD parser/validator
used to check produced documents against Fig. 2-style DTDs.
"""

from repro.xmlgen.streams import (
    Instance,
    ComparatorLayout,
    XmlDocumentCache,
    decode_stream,
    merge_streams,
    reference_decode,
)
from repro.xmlgen.serializer import CountingSink, XmlWriter, escape_text
from repro.xmlgen.tagger import Document, TagCounts, XmlTagger, tag_streams
from repro.xmlgen.splice import FragmentCache, Tagging, splice_streams
from repro.xmlgen.dtd import Dtd, parse_dtd, validate_document

__all__ = [
    "Instance",
    "ComparatorLayout",
    "XmlDocumentCache",
    "decode_stream",
    "merge_streams",
    "reference_decode",
    "CountingSink",
    "XmlWriter",
    "escape_text",
    "Document",
    "TagCounts",
    "XmlTagger",
    "tag_streams",
    "FragmentCache",
    "Tagging",
    "splice_streams",
    "Dtd",
    "parse_dtd",
    "validate_document",
]
