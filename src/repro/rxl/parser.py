"""Recursive-descent parser for RXL.

Grammar (see the paper's Fig. 3 for the concrete style)::

    query      ::= 'from' from_list [ 'where' cond_list ] 'construct' element+
    from_list  ::= table var { ',' table var }
    var        ::= '$' IDENT
    cond_list  ::= cond { (',' | 'and') cond }
    cond       ::= operand op operand            op ∈ { = != < <= > >= }
    operand    ::= var '.' IDENT | NUMBER | STRING | 'DATE' STRING
    element    ::= '<' TAG [ 'ID' '=' IDENT '(' skolem_args ')' ] '>'
                       content* '</' TAG '>'
    content    ::= element | block | var '.' IDENT | STRING
    block      ::= '{' query '}'
"""

import datetime

from repro.common.errors import RxlSyntaxError
from repro.rxl.ast import (
    VarField,
    LiteralValue,
    RxlCondition,
    TupleVarDecl,
    TextExpr,
    TextLiteral,
    SkolemSpec,
    RxlElement,
    RxlBlock,
    RxlQuery,
)
from repro.rxl.lexer import tokenize, unescape_string

_CONDITION_OPS = {"=", "!=", "<", "<=", ">", ">="}


def parse_rxl(text):
    """Parse RXL source text into an :class:`repro.rxl.ast.RxlQuery`."""
    parser = _Parser(tokenize(text))
    query = parser.parse_query()
    parser.expect_eof()
    return query


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def current(self):
        return self.tokens[self.index]

    def peek(self, offset=1):
        i = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[i]

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
            want = value if value is not None else kind
            raise RxlSyntaxError(
                f"expected {want!r}, found {token.value or token.kind!r}",
                line=token.line,
                column=token.column,
            )
        return self.advance()

    def accept(self, kind, value=None):
        token = self.current
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    def expect_eof(self):
        if self.current.kind != "eof":
            self.error(f"unexpected trailing input {self.current.value!r}")

    # -- grammar -------------------------------------------------------------

    def parse_query(self):
        self.expect("keyword", "from")
        froms = self._parse_from_list()
        conditions = []
        if self.accept("keyword", "where"):
            conditions = self._parse_cond_list()
        self.expect("keyword", "construct")
        construct = []
        while self.current.kind == "op" and self.current.value == "<":
            construct.append(self._parse_element())
        if not construct:
            self.error("construct clause must contain at least one element")
        return RxlQuery(froms=froms, conditions=conditions, construct=construct)

    def _parse_from_list(self):
        froms = [self._parse_tuple_var()]
        while self.accept("punct", ","):
            froms.append(self._parse_tuple_var())
        return froms

    def _parse_tuple_var(self):
        table = self.expect("ident").value
        var = self.expect("var").value
        return TupleVarDecl(table=table, var=var)

    def _parse_cond_list(self):
        conditions = [self._parse_condition()]
        while True:
            if self.accept("punct", ",") or self.accept("keyword", "and"):
                conditions.append(self._parse_condition())
            else:
                return conditions

    def _parse_condition(self):
        left = self._parse_operand()
        op_token = self.current
        if op_token.kind != "op" or op_token.value not in _CONDITION_OPS:
            self.error(f"expected comparison operator, found {op_token.value!r}")
        self.advance()
        right = self._parse_operand()
        return RxlCondition(op=op_token.value, left=left, right=right)

    def _parse_operand(self):
        token = self.current
        if token.kind == "var":
            return self._parse_var_field()
        if token.kind == "number":
            self.advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return LiteralValue(value)
        if token.kind == "string":
            self.advance()
            return LiteralValue(unescape_string(token.value))
        if token.value == "DATE" and self.peek().kind == "string":
            self.advance()
            text = unescape_string(self.current.value)
            try:
                value = datetime.date.fromisoformat(text)
            except ValueError:
                self.error(f"not an ISO date: {text!r}")
            self.advance()
            return LiteralValue(value)
        self.error(f"expected $var.field or literal, found {token.value!r}")

    def _parse_var_field(self):
        var = self.expect("var").value
        self.expect("punct", ".")
        field = self._expect_field_name()
        return VarField(var=var, field=field)

    def _expect_field_name(self):
        token = self.current
        if token.kind in ("ident", "keyword"):
            self.advance()
            return token.value
        self.error(f"expected field name, found {token.value!r}")

    def _parse_element(self):
        self.expect("op", "<")
        tag = self.expect("ident").value
        skolem = None
        if self.accept("keyword", "ID"):
            self.expect("op", "=")
            name = self.expect("ident").value
            self.expect("punct", "(")
            args = []
            if not self.accept("punct", ")"):
                args.append(self._parse_var_field())
                while self.accept("punct", ","):
                    args.append(self._parse_var_field())
                self.expect("punct", ")")
            skolem = SkolemSpec(name=name, args=tuple(args))
        self.expect("op", ">")
        contents = []
        while True:
            token = self.current
            if token.kind == "op" and token.value == "<":
                if self.peek().kind == "punct" and self.peek().value == "/":
                    break
                contents.append(self._parse_element())
            elif token.kind == "punct" and token.value == "{":
                self.advance()
                query = self.parse_query()
                self.expect("punct", "}")
                contents.append(RxlBlock(query=query))
            elif token.kind == "var":
                contents.append(TextExpr(self._parse_var_field()))
            elif token.kind == "string":
                self.advance()
                contents.append(TextLiteral(unescape_string(token.value)))
            else:
                self.error(
                    f"unexpected {token.value or token.kind!r} in element content"
                )
        self.expect("op", "<")
        self.expect("punct", "/")
        closing = self.expect("ident").value
        if closing != tag:
            self.error(f"mismatched closing tag </{closing}> for <{tag}>")
        self.expect("op", ">")
        return RxlElement(tag=tag, contents=contents, skolem=skolem)
