"""Columnar batches for the batch engine.

The tuple engine moves Python tuples one at a time through per-row
interpreter loops.  The batch engine (:mod:`repro.relational.vector_ops`)
instead passes :class:`Batch` objects between operators: a batch carries
the *same* rows, but holds them in whichever representation the producing
kernel built cheaply — row-major (a list of tuples, what scans, filters,
joins, and sorts produce) or column-major (a list of per-column value
lists, what projections and unions produce).  A column-major batch is
transposed to rows lazily, at most once, by one C-level
``list(zip(*columns))``.

Batches are value-immutable by contract, exactly like the tuple engine's
result rows: they are shared through the engine's common-subexpression
memo and the plan-result cache, so neither the row list nor the column
lists may be mutated after construction.
"""


class Batch:
    """One operator's output: ``length`` rows of ``arity`` columns.

    Built from rows or from columns; :meth:`rows` derives the row-major
    view of a column-major batch on first use and keeps it.  ``col(i)``
    extracts a single column without transposing a row-major batch (the
    common case for join keys and sort keys).
    """

    __slots__ = ("length", "arity", "_rows", "_columns")

    def __init__(self, length, arity, rows=None, columns=None):
        self.length = length
        self.arity = arity
        self._rows = rows
        self._columns = columns

    @classmethod
    def from_rows(cls, rows, arity):
        """Wrap a list of row tuples (not copied; treat as immutable)."""
        return cls(len(rows), arity, rows=rows)

    @classmethod
    def from_columns(cls, columns, length):
        """Wrap a list of column lists (not copied; treat as immutable).
        ``length`` is explicit so zero-arity batches keep their row
        count."""
        return cls(length, len(columns), columns=columns)

    def rows(self):
        """The row-major view, transposing on first use."""
        rows = self._rows
        if rows is None:
            # Zero-width rows: there is no column to zip, only a count.
            rows = self._rows = (
                list(zip(*self._columns)) if self.arity
                else [()] * self.length
            )
        return rows

    def col(self, index):
        """One column's values, without forcing a full transpose."""
        if self._columns is not None:
            return self._columns[index]
        return [row[index] for row in self._rows]

    def __len__(self):
        return self.length

    def __repr__(self):
        held = "rows" if self._rows is not None else "columns"
        return f"Batch({self.length}x{self.arity}, {held})"
