"""Abstract syntax tree for RXL queries."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class VarField:
    """``$var.field`` — a column of a tuple variable."""

    var: str
    field: str


@dataclass(frozen=True)
class LiteralValue:
    """A constant in a where-clause condition."""

    value: object

    def __str__(self):
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True)
class RxlCondition:
    """One where-clause condition ``left op right``."""

    op: str
    left: object   # VarField | LiteralValue
    right: object  # VarField | LiteralValue

    def __str__(self):
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class TupleVarDecl:
    """``Table $var`` in a from clause: $var iterates over Table."""

    table: str
    var: str


@dataclass(frozen=True)
class TextExpr:
    """Element content computed from a tuple variable: ``$var.field``."""

    ref: VarField


@dataclass(frozen=True)
class TextLiteral:
    """Constant element content (a quoted string in the construct clause)."""

    text: str


@dataclass(frozen=True)
class SkolemSpec:
    """An explicit Skolem term ``ID=Name($v.a, $w.b, ...)`` on an element.

    Users give these to control element grouping/fusion (Sec. 3.1); when
    absent, the system introduces a Skolem function automatically.
    """

    name: str
    args: tuple  # of VarField


@dataclass
class RxlElement:
    """One XML element template in a construct clause."""

    tag: str
    contents: list = field(default_factory=list)  # RxlElement|RxlBlock|TextExpr|TextLiteral
    skolem: SkolemSpec = None


@dataclass
class RxlBlock:
    """A nested ``{ from ... where ... construct ... }`` block.

    Parallel blocks inside one element express union; a block's construct
    clause may again contain elements with nested blocks.
    """

    query: "RxlQuery"


@dataclass
class RxlQuery:
    """A (sub)query: from clause, where clause, construct clause.

    The top-level RXL view is an ``RxlQuery``; nested blocks hold their own
    ``RxlQuery`` whose scope extends the enclosing ones.
    """

    froms: list      # of TupleVarDecl
    conditions: list  # of RxlCondition
    construct: list  # of RxlElement (usually exactly one at each level)
