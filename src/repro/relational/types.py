"""SQL value types.

Each type knows how to validate a Python value and reports a *width* in
bytes, which the cost model uses to charge sort, spill, and transfer costs.
Widths follow typical RDBMS storage sizes; VARCHAR widths are declared
maxima, while per-table statistics track observed average widths.
"""

import enum
import datetime
import math
from operator import itemgetter


class SqlType(enum.Enum):
    """The SQL types used by the TPC-H fragment and the generated queries."""

    INTEGER = "integer"
    DECIMAL = "decimal"
    VARCHAR = "varchar"
    CHAR = "char"
    DATE = "date"

    @property
    def storage_width(self):
        """Nominal storage width in bytes, used by the cost model."""
        return _STORAGE_WIDTHS[self]

    def accepts(self, value):
        """Return True if ``value`` is a legal non-NULL value of this type."""
        if self is SqlType.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is SqlType.DECIMAL:
            # Finite only: NaN is unordered, and a sort needs a total order.
            if isinstance(value, float):
                return math.isfinite(value)
            return isinstance(value, int) and not isinstance(value, bool)
        if self in (SqlType.VARCHAR, SqlType.CHAR):
            return isinstance(value, str)
        if self is SqlType.DATE:
            return isinstance(value, datetime.date)
        raise AssertionError(f"unhandled type {self}")

    def value_width(self, value):
        """Width in bytes of one concrete value (NULL costs nothing here;
        the transfer model charges its own small null-marker cost)."""
        if value is None:
            return 0
        if self in (SqlType.VARCHAR, SqlType.CHAR):
            return len(value)
        return self.storage_width

    def to_sql_literal(self, value):
        """Render a Python value as a SQL literal in this type."""
        if value is None:
            return "NULL"
        if self is SqlType.INTEGER:
            return str(value)
        if self is SqlType.DECIMAL:
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{value!r} is not a SQL decimal")
            return repr(value)
        if self in (SqlType.VARCHAR, SqlType.CHAR):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        if self is SqlType.DATE:
            return f"DATE '{value.isoformat()}'"
        raise AssertionError(f"unhandled type {self}")


_WIDTH_FUNCTIONS = {}


def width_function(sql_type):
    """A memoized fast-path callable ``value -> width`` for one type.

    Equivalent to :meth:`SqlType.value_width` for non-NULL values but
    avoids the per-value enum dispatch: variable-width types return
    ``len`` itself, fixed-width types a constant function.  Hot loops
    (transfer costing, sort-width sampling) bind one callable per column
    instead of re-deciding the type per field.
    """
    fn = _WIDTH_FUNCTIONS.get(sql_type)
    if fn is None:
        if sql_type in (SqlType.VARCHAR, SqlType.CHAR):
            fn = len
        else:
            width = sql_type.storage_width
            fn = lambda value, _width=width: _width  # noqa: E731
        _WIDTH_FUNCTIONS[sql_type] = fn
    return fn


def average_row_width(columns, rows, sample=500, nullable=None):
    """Average width in bytes of ``rows`` (typed by ``columns``), from an
    even sample of at most about ``sample`` rows: what a sort charges per
    row and what a row-holding plan-cache entry weighs.  ``nullable`` (per
    column, whether it may hold a NULL), where the caller knows it, spares
    reading the fixed-width columns that hold none: the same sum."""
    # Sample evenly: consecutive rows share a document-order prefix and
    # are unrepresentative (e.g. the narrow supplier rows come first).
    sampled = rows[::max(len(rows) // sample, 1)]
    n = len(sampled)
    # Summed per column, in C; an integer, so the average is exact.
    total = 0
    for position, col in enumerate(columns):
        text = col.sql_type in (SqlType.VARCHAR, SqlType.CHAR)
        if not (text or nullable is None or nullable[position]):
            total += n * col.sql_type.storage_width
            continue
        values = list(map(itemgetter(position), sampled))
        nulls = values.count(None)
        total += nulls  # null markers
        if text:
            # filter(None, ...) also drops "", which is zero wide.
            total += sum(map(len, filter(None, values)))
        else:
            total += (n - nulls) * col.sql_type.storage_width
    return total / n


_STORAGE_WIDTHS = {
    SqlType.INTEGER: 4,
    SqlType.DECIMAL: 8,
    SqlType.VARCHAR: 24,
    SqlType.CHAR: 8,
    SqlType.DATE: 4,
}


#: Words that cannot appear as bare identifiers in the generated SQL —
#: SQLite's reserved-keyword list and the keywords of the generated dialect
#: itself, so quoted output is accepted verbatim by a real SQL parser.
SQL_RESERVED_WORDS = frozenset("""
    abort action add after all alter always analyze and as asc attach
    autoincrement before begin between by cascade case cast check collate
    column commit conflict constraint create cross current current_date
    current_time current_timestamp database date default deferrable deferred
    delete desc detach distinct do drop each else end escape except exclude
    exclusive exists explain fail filter first following for foreign from
    full generated glob group groups having if ignore immediate in index
    indexed initially inner insert instead intersect into is isnull join key
    last left like limit materialized natural no not nothing notnull null
    nulls of offset on or order others outer over partition plan pragma
    preceding primary query raise range recursive references regexp reindex
    release rename replace restrict returning right rollback row rows
    savepoint select set table temp temporary then ties to transaction
    trigger true unbounded union unique update using vacuum values view
    virtual when where window with without
""".split())


def quote_sql_ident(name):
    """Quote the dotted parts of identifier ``name`` that a SQL parser
    would not accept bare: reserved words and anything that is not a plain
    identifier are wrapped in double quotes (with ``\"\"`` doubling), while
    ordinary parts stay verbatim — so typical generated SQL is unchanged
    and reserved-word schema names round-trip through every consumer."""
    if "." not in name and _ident_is_plain(name):
        return name
    return ".".join(
        part if _ident_is_plain(part) else '"%s"' % part.replace('"', '""')
        for part in name.split(".")
    )


def quote_sql_alias(name):
    """Quote ``name`` as a *single* identifier.  An output-column alias
    is one name even when it contains dots (``r.regionkey`` as a column
    label), so unlike :func:`quote_sql_ident` nothing is split."""
    if _ident_is_plain(name):
        return name
    return '"%s"' % name.replace('"', '""')


def _ident_is_plain(part):
    return part.isidentifier() and part.lower() not in SQL_RESERVED_WORDS


def sql_literal(value):
    """Render a Python value as a SQL literal, inferring the type."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        raise TypeError("boolean literals are not part of the supported dialect")
    if isinstance(value, int):
        return SqlType.INTEGER.to_sql_literal(value)
    if isinstance(value, float):
        return SqlType.DECIMAL.to_sql_literal(value)
    if isinstance(value, str):
        return SqlType.VARCHAR.to_sql_literal(value)
    if isinstance(value, datetime.date):
        return SqlType.DATE.to_sql_literal(value)
    raise TypeError(f"cannot render {type(value).__name__} as a SQL literal")
