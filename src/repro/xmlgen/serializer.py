"""Incremental XML serialization with escaping."""

import datetime
import io


def escape_text(value):
    """Escape character data; non-string values use their natural form."""
    if not isinstance(value, str):
        text = format_value(value)
        if isinstance(value, (int, float, datetime.date)):
            return text  # digits, signs, points and dashes: no markup
    else:
        text = value
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def format_value(value):
    """Render a SQL value as XML character data."""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return f"{value:.2f}"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


#: :func:`escape_text` by exact type for the values a column holds;
#: any other type (``bool``, ``datetime``, …) takes the function itself.
#: The generated kernels format a column by the entry of its type.
CHARACTER_DATA = {
    str: escape_text,
    int: int.__repr__,
    float: "{:.2f}".format,
    datetime.date: datetime.date.isoformat,
}


class _Markup(dict):
    """``tag -> markup`` from one template: a memo of a pure function,
    shared by every writer, that starts over past 1,024 tags."""

    def __init__(self, template):
        self.template = template

    def __missing__(self, tag):
        if len(self) >= 1024:
            self.clear()
        markup = self[tag] = self.template.format(tag)
        return markup


_OPENING, _CLOSING = _Markup("<{}>"), _Markup("</{}>")


# The markup of an element, shared by XmlWriter and the generated kernels
# (repro.xmlgen.kernel), which pre-render it per (node, depth).  ``level``
# is the element's nesting: 0 for the outermost element of the document.


def opening(tag, indent=None, level=0):
    """``tag``'s start tag; indented, on a new line (:class:`FirstLine`
    takes the document's first line break off)."""
    if indent is None:
        return _OPENING[tag]
    return "\n" + " " * (indent * level) + _OPENING[tag]


def closing(tag, indent=None, level=0, children=False):
    """``tag``'s end tag; indented, on a new line where the element has
    child elements."""
    if indent is None or not children:
        return _CLOSING[tag]
    return "\n" + " " * (indent * level) + _CLOSING[tag]


class FirstLine:
    """``write`` for indented output: the line break that comes with the
    document's first start tag is dropped."""

    __slots__ = ("_write", "_first")

    def __init__(self, write):
        self._write, self._first = write, True

    def __call__(self, text):
        if self._first and text:
            self._first = False
            if text[0] == "\n":
                text = text[1:]
        return self._write(text)


class XmlWriter:
    """Streaming XML writer.

    Writes to an internal buffer (or any file-like ``sink``), one event at a
    time, so the tagger never holds the document in memory.  ``indent`` of
    ``None`` produces compact output: one ``write`` per event.
    """

    def __init__(self, sink=None, indent=None):
        self.sink = sink if sink is not None else io.StringIO()
        self.indent = indent
        self.depth = 0
        self._write = self.sink.write if indent is None else FirstLine(
            self.sink.write)
        self._open_tag_has_children = []

    def start_element(self, tag):
        if self.indent is not None:
            if self._open_tag_has_children:
                self._open_tag_has_children[-1] = True
            self._open_tag_has_children.append(False)
        self._write(opening(tag, self.indent, self.depth))
        self.depth += 1

    def text(self, value):
        self._write(CHARACTER_DATA.get(type(value), escape_text)(value))

    def end_element(self, tag):
        self.depth -= 1
        self._write(closing(tag, self.indent, self.depth, self.indent
                            is not None and self._open_tag_has_children.pop()))

    def getvalue(self):
        if isinstance(self.sink, io.StringIO):
            return self.sink.getvalue()
        raise TypeError("writer is backed by an external sink")


class CountingSink:
    """A file-like sink that discards everything it is given, counting
    characters — lets benchmarks and dry runs drive the full streaming
    serialization path without accumulating the document anywhere."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)
