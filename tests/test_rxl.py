"""Tests for the RXL language front end (repro.rxl)."""

import pytest

from repro.common.errors import RxlScopeError, RxlSyntaxError
from repro.rxl.ast import (
    LiteralValue,
    RxlBlock,
    RxlElement,
    TextExpr,
    TextLiteral,
    VarField,
)
from repro.rxl.lexer import tokenize, unescape_string
from repro.rxl.parser import parse_rxl
from repro.rxl.validate import validate_rxl
from repro.bench.queries import QUERY_1, QUERY_2


class TestLexer:
    def test_keywords_and_idents(self):
        tokens = tokenize("from Supplier $s construct")
        kinds = [(t.kind, t.value) for t in tokens[:-1]]
        assert kinds == [
            ("keyword", "from"),
            ("ident", "Supplier"),
            ("var", "s"),
            ("keyword", "construct"),
        ]

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"

    def test_operators(self):
        values = [t.value for t in tokenize("= != < <= > >=")[:-1]]
        assert values == ["=", "!=", "<", "<=", ">", ">="]

    def test_numbers_and_strings(self):
        tokens = tokenize('42 3.14 "hi there"')
        assert tokens[0].kind == "number" and tokens[0].value == "42"
        assert tokens[1].kind == "number"
        assert tokens[2].kind == "string"
        assert unescape_string(tokens[2].value) == "hi there"

    def test_string_escapes(self):
        token = tokenize(r'"say \"hi\""')[0]
        assert unescape_string(token.value) == 'say "hi"'

    def test_comments_skipped(self):
        tokens = tokenize("from # a comment\nSupplier $s")
        assert [t.value for t in tokens[:-1]] == ["from", "Supplier", "s"]

    def test_line_tracking(self):
        tokens = tokenize("from\n  Supplier")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_unexpected_character(self):
        with pytest.raises(RxlSyntaxError, match="line 1"):
            tokenize("from @")


class TestParser:
    def test_minimal_query(self):
        query = parse_rxl(
            "from Supplier $s construct <s><n>$s.name</n></s>"
        )
        assert query.froms[0].table == "Supplier"
        assert query.froms[0].var == "s"
        root = query.construct[0]
        assert root.tag == "s"
        child = root.contents[0]
        assert isinstance(child, RxlElement)
        assert isinstance(child.contents[0], TextExpr)
        assert child.contents[0].ref == VarField("s", "name")

    def test_conditions(self):
        query = parse_rxl(
            "from A $a, B $b where $a.x = $b.y and $a.z < 5, $a.w = \"v\" "
            "construct <t>$a.x</t>"
        )
        assert len(query.conditions) == 3
        assert query.conditions[0].op == "="
        assert query.conditions[1].right == LiteralValue(5)
        assert query.conditions[2].right == LiteralValue("v")

    def test_nested_block(self):
        query = parse_rxl(
            "from A $a construct <t>{ from B $b where $a.x = $b.x "
            "construct <u>$b.y</u> }</t>"
        )
        block = query.construct[0].contents[0]
        assert isinstance(block, RxlBlock)
        assert block.query.froms[0].table == "B"

    def test_explicit_skolem(self):
        query = parse_rxl(
            "from A $a construct <t ID=Grp($a.x, $a.y)>$a.x</t>"
        )
        skolem = query.construct[0].skolem
        assert skolem.name == "Grp"
        assert skolem.args == (VarField("a", "x"), VarField("a", "y"))

    def test_empty_skolem_args(self):
        query = parse_rxl("from A $a construct <t ID=One()>$a.x</t>")
        assert query.construct[0].skolem.args == ()

    def test_text_literal_content(self):
        query = parse_rxl('from A $a construct <t>"hello"</t>')
        assert query.construct[0].contents == [TextLiteral("hello")]

    def test_mismatched_tags(self):
        with pytest.raises(RxlSyntaxError, match="mismatched"):
            parse_rxl("from A $a construct <t>$a.x</u>")

    def test_missing_construct(self):
        with pytest.raises(RxlSyntaxError):
            parse_rxl("from A $a where $a.x = 1")

    def test_empty_construct(self):
        with pytest.raises(RxlSyntaxError, match="at least one element"):
            parse_rxl("from A $a construct")

    def test_trailing_garbage(self):
        with pytest.raises(RxlSyntaxError, match="trailing"):
            parse_rxl("from A $a construct <t>$a.x</t> zzz")

    def test_float_literal(self):
        query = parse_rxl(
            "from A $a where $a.x > 1.5 construct <t>$a.x</t>"
        )
        assert query.conditions[0].right == LiteralValue(1.5)

    def test_negative_and_date_literals(self):
        import datetime

        query = parse_rxl(
            'from A $a where $a.x > -7, $a.d = DATE "1998-01-05" '
            "construct <t>$a.x</t>"
        )
        assert [c.right for c in query.conditions] == [
            LiteralValue(-7), LiteralValue(datetime.date(1998, 1, 5))]
        with pytest.raises(RxlSyntaxError, match="ISO date"):
            parse_rxl('from A $a where $a.d = DATE "1998-1-5" '
                      "construct <t>$a.x</t>")

    def test_error_position_reported(self):
        with pytest.raises(RxlSyntaxError) as excinfo:
            parse_rxl("from A $a\nwhere construct <t>$a.x</t>")
        assert excinfo.value.line == 2

    def test_parses_paper_queries(self):
        q1 = parse_rxl(QUERY_1)
        q2 = parse_rxl(QUERY_2)
        assert q1.construct[0].tag == "supplier"
        assert q2.construct[0].tag == "supplier"
        # Query 1 nests order inside part; Query 2 moves it up.
        part_block_q1 = q1.construct[0].contents[-1]
        assert isinstance(part_block_q1, RxlBlock)


class TestValidate:
    def test_valid_queries(self, schema):
        assert validate_rxl(parse_rxl(QUERY_1), schema) == 7
        assert validate_rxl(parse_rxl(QUERY_2), schema) == 7

    def test_unknown_table(self, schema):
        query = parse_rxl("from Nope $n construct <t>$n.x</t>")
        with pytest.raises(RxlScopeError, match="unknown table"):
            validate_rxl(query, schema)

    def test_unknown_column(self, schema):
        query = parse_rxl("from Supplier $s construct <t>$s.zzz</t>")
        with pytest.raises(RxlScopeError, match="no column"):
            validate_rxl(query, schema)

    def test_undeclared_variable(self, schema):
        query = parse_rxl(
            "from Supplier $s where $x.a = 1 construct <t>$s.name</t>"
        )
        with pytest.raises(RxlScopeError, match="undeclared"):
            validate_rxl(query, schema)

    def test_shadowing_rejected(self, schema):
        query = parse_rxl(
            "from Supplier $s construct <t>"
            "{ from Nation $s construct <u>$s.name</u> }</t>"
        )
        with pytest.raises(RxlScopeError, match="already declared"):
            validate_rxl(query, schema)

    def test_sibling_blocks_may_reuse_names(self, schema):
        query = parse_rxl(
            "from Supplier $s construct <t>"
            "{ from Nation $n where $s.nationkey = $n.nationkey "
            "construct <u>$n.name</u> }"
            "{ from Nation $n where $s.nationkey = $n.nationkey "
            "construct <w>$n.name</w> }</t>"
        )
        validate_rxl(query, schema)

    def test_literal_comparison_rejected(self, schema):
        query = parse_rxl(
            "from Supplier $s where 1 = 2 construct <t>$s.name</t>"
        )
        with pytest.raises(RxlScopeError, match="two literals"):
            validate_rxl(query, schema)

    def test_skolem_arity_conflict(self, schema):
        query = parse_rxl(
            "from Supplier $s construct <t>"
            "<u ID=F($s.suppkey)>$s.name</u>"
            "<w ID=F($s.suppkey, $s.name)>$s.name</w></t>"
        )
        with pytest.raises(RxlScopeError, match="argument"):
            validate_rxl(query, schema)

    def test_skolem_args_validated(self, schema):
        query = parse_rxl(
            "from Supplier $s construct <t ID=F($s.zzz)>$s.name</t>"
        )
        with pytest.raises(RxlScopeError, match="no column"):
            validate_rxl(query, schema)

    def test_condition_in_scope_of_enclosing_block(self, schema):
        query = parse_rxl(
            "from Supplier $s construct <t>"
            "{ from PartSupp $ps where $s.suppkey = $ps.suppkey "
            "construct <u>$ps.partkey</u> }</t>"
        )
        validate_rxl(query, schema)
