"""Columnar batches for the batch engine.

The tuple engine moves Python tuples one at a time through per-row
interpreter loops.  The batch engine (:mod:`repro.relational.pipeline`)
instead passes :class:`Batch` objects between its pipelines and pipeline
breakers: a batch carries the *same* rows, but holds them in whichever
representation the producer built cheaply — row-major (a list of tuples,
what pipelines, distincts and sorts produce) or column-major (a list of
per-column value lists, what outer unions produce).  A column-major batch
is transposed to rows lazily, at most once, by one C-level
``list(zip(*columns))``, and a sort reads it without the transpose.

Batches are value-immutable by contract, exactly like the tuple engine's
result rows: they are shared through the engine's common-subexpression
memo and the plan-result cache, so neither the row list nor the column
lists may be mutated after construction.
"""

from repro.relational.table import hash_rows
from repro.relational.types import average_column_width


class Batch:
    """One operator's output: ``length`` rows of ``arity`` columns.

    Built from rows or from columns; :meth:`rows` derives the row-major
    view of a column-major batch on first use and keeps it, and
    :meth:`columns` reads a row-major one by column.

    ``counts`` is what a pipeline counted while producing the batch (one
    number per fused operator whose charge depends on the rows), kept with
    it so a node-cache hit charges what the computation would have.
    """

    __slots__ = ("length", "arity", "_rows", "_columns", "counts",
                 "_indexes")

    def __init__(self, length, arity, rows=None, columns=None, counts=()):
        self.length = length
        self.arity = arity
        self._rows = rows
        self._columns = columns
        self.counts = counts
        self._indexes = None

    @classmethod
    def from_rows(cls, rows, arity, counts=()):
        """Wrap a list of row tuples (not copied; treat as immutable)."""
        return cls(len(rows), arity, rows=rows, counts=counts)

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

    def columns(self):
        """Every column's values: the column lists of a column-major
        batch, else one C-level transpose of the rows (tuples; not
        kept)."""
        if self._columns is not None:
            return self._columns
        return list(zip(*self._rows)) if self._rows else [
            () for _ in range(self.arity)]

    def index_on(self, positions, tag=None):
        """``(index, rows indexed)``: the rows hashed by the values at
        ``positions`` (:func:`~repro.relational.table.hash_rows`: scalar
        keys for one position, NULL keys left out), only those whose
        column ``tag[0]`` equals ``tag[1]`` when a ``tag`` is given.  Built
        on first use and kept with the batch, which is immutable: a build
        side the memo or the node cache hands out again is not hashed
        again."""
        indexes = self._indexes
        if indexes is None:
            indexes = self._indexes = {}
        key = (positions, tag)
        built = indexes.get(key)
        if built is None:
            rows = self.rows()
            if tag is not None:
                position, value = tag
                rows = [row for row in rows if row[position] == value]
            index = hash_rows(rows, positions)
            built = indexes[key] = (index, sum(map(len, index.values())))
        return built

    def gather(self, order):
        """A new list of the rows at the indexes ``order``; a column-major
        batch is gathered column-wise and zipped once, never transposed
        whole."""
        if self._columns is None or not self.arity:
            return list(map(self.rows().__getitem__, order))
        return list(zip(*[map(column.__getitem__, order)
                          for column in self._columns]))

    def average_width(self, columns, values=None):
        """:func:`~repro.relational.types.average_column_width` of the
        rows typed by ``columns``, sampled from the column ``values`` (by
        default :meth:`columns`): the rows
        :func:`~repro.relational.types.average_row_width` samples, the
        same sum."""
        if values is None:
            values = self.columns()
        return average_column_width(columns, values, self.length)

    def __len__(self):
        return self.length

    def __repr__(self):
        held = "rows" if self._rows is not None else "columns"
        return f"Batch({self.length}x{self.arity}, {held})"
