"""Parser for the XML-QL subset, reusing the RXL lexer.

Grammar::

    query      ::= 'where' pattern { ',' condition } 'construct' element
    pattern    ::= '<' TAG '>' ( '$' VAR | STRING | pattern* ) '</' TAG '>'
    condition  ::= '$' VAR op literal          op ∈ { = != < <= > >= }
    element    ::= '<' TAG [ 'ID' '=' NAME '(' [ '$' VAR { ',' '$' VAR } ] ')' ]
                   '>' ( element | '$' VAR | STRING )* '</' TAG '>'

Example::

    where <supplier>
            <name>$s</name>
            <part><pname>$p</pname></part>
          </supplier>,
          $s = "Supplier#000003"
    construct <stocked><who>$s</who><what>$p</what></stocked>
"""

from repro.common.errors import RxlSyntaxError
from repro.rxl.lexer import tokenize, unescape_string
from repro.xmlql.ast import (
    ConstructNode,
    PatternElement,
    VarCondition,
    XmlQlQuery,
)

_CONDITION_OPS = {"=", "!=", "<", "<=", ">", ">="}


def parse_xmlql(text):
    """Parse an XML-QL query."""
    parser = _Parser(tokenize(text))
    query = parser.parse()
    return query


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    @property
    def current(self):
        return self.tokens[self.index]

    def peek(self, offset=1):
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def advance(self):
        token = self.current
        if token.kind != "eof":
            self.index += 1
        return token

    def error(self, message):
        token = self.current
        raise RxlSyntaxError(message, line=token.line, column=token.column)

    def expect(self, kind, value=None):
        token = self.current
        if token.kind != kind or (value is not None and token.value != value):
            self.error(f"expected {value or kind!r}, found {token.value!r}")
        return self.advance()

    def accept(self, kind, value=None):
        token = self.current
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    # -- grammar ------------------------------------------------------------

    def parse(self):
        self.expect("keyword", "where")
        pattern = self._parse_pattern()
        conditions = []
        while self.accept("punct", ",") or self.accept("keyword", "and"):
            conditions.append(self._parse_condition())
        self.expect("keyword", "construct")
        construct = self._parse_construct()
        if self.current.kind != "eof":
            self.error(f"unexpected trailing input {self.current.value!r}")
        return XmlQlQuery(
            pattern=pattern, conditions=conditions, construct=construct
        )

    def _parse_pattern(self):
        self.expect("op", "<")
        tag = self.expect("ident").value
        self.expect("op", ">")
        element = PatternElement(tag=tag)
        while True:
            token = self.current
            if token.kind == "op" and token.value == "<":
                if self.peek().kind == "punct" and self.peek().value == "/":
                    break
                element.children.append(self._parse_pattern())
            elif token.kind == "var":
                if element.text_var or element.text_literal:
                    self.error(f"<{tag}> already has text content")
                element.text_var = self.advance().value
            elif token.kind == "string":
                if element.text_var or element.text_literal:
                    self.error(f"<{tag}> already has text content")
                element.text_literal = unescape_string(self.advance().value)
            else:
                self.error(
                    f"unexpected {token.value or token.kind!r} in pattern"
                )
        self._expect_closing(tag)
        return element

    def _parse_condition(self):
        var = self.expect("var").value
        op_token = self.current
        if op_token.kind != "op" or op_token.value not in _CONDITION_OPS:
            self.error(f"expected comparison operator, found {op_token.value!r}")
        self.advance()
        token = self.current
        if token.kind == "number":
            self.advance()
            value = float(token.value) if "." in token.value else int(token.value)
        elif token.kind == "string":
            self.advance()
            value = unescape_string(token.value)
        else:
            self.error(f"expected literal, found {token.value!r}")
        return VarCondition(var=var, op=op_token.value, value=value)

    def _parse_construct(self):
        self.expect("op", "<")
        tag = self.expect("ident").value
        node = ConstructNode(tag=tag)
        if self.accept("keyword", "ID"):
            self.expect("op", "=")
            name = self.expect("ident").value
            self.expect("punct", "(")
            args = []
            while not self.accept("punct", ")"):
                if args:
                    self.expect("punct", ",")
                args.append(self.expect("var").value)
            node.skolem = (name, tuple(args))
        self.expect("op", ">")
        while True:
            token = self.current
            if token.kind == "op" and token.value == "<":
                if self.peek().kind == "punct" and self.peek().value == "/":
                    break
                node.contents.append(self._parse_construct())
            elif token.kind == "var":
                node.contents.append(("var", self.advance().value))
            elif token.kind == "string":
                node.contents.append(unescape_string(self.advance().value))
            else:
                self.error(
                    f"unexpected {token.value or token.kind!r} in construct"
                )
        self._expect_closing(tag)
        return node

    def _expect_closing(self, tag):
        self.expect("op", "<")
        self.expect("punct", "/")
        closing = self.expect("ident").value
        if closing != tag:
            self.error(f"mismatched closing tag </{closing}> for <{tag}>")
        self.expect("op", ">")
