"""Tokenizer for RXL source text."""

import re
from dataclasses import dataclass

from repro.common.errors import RxlSyntaxError

KEYWORDS = {"from", "where", "construct", "and", "ID"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>-?\d+(\.\d+)?)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<var>\$[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[{}().,/\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str      # 'keyword' | 'ident' | 'var' | 'number' | 'string' | 'op' | 'punct' | 'eof'
    value: str
    line: int
    column: int


def tokenize(text):
    """Tokenize RXL source; ``#`` starts a line comment.  Returns a list of
    :class:`Token` terminated by an ``eof`` token."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise RxlSyntaxError(
                f"unexpected character {text[pos]!r}",
                line=line,
                column=pos - line_start + 1,
            )
        column = pos - line_start + 1
        kind = match.lastgroup
        value = match.group()
        if kind in ("ws", "comment"):
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = pos + value.rfind("\n") + 1
        elif kind == "number":
            tokens.append(Token("number", value, line, column))
        elif kind == "string":
            tokens.append(Token("string", value, line, column))
        elif kind == "var":
            tokens.append(Token("var", value[1:], line, column))
        elif kind == "ident":
            token_kind = "keyword" if value in KEYWORDS else "ident"
            tokens.append(Token(token_kind, value, line, column))
        elif kind == "op":
            tokens.append(Token("op", value, line, column))
        elif kind == "punct":
            tokens.append(Token("punct", value, line, column))
        pos = match.end()
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def unescape_string(raw):
    """Strip quotes and process backslash escapes of a string token."""
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")
