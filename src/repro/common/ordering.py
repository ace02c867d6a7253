"""Total ordering over heterogeneous, nullable sort keys.

The integrated relation of the paper (Sec. 3.2) is sorted by the interleaved
sequence ``L1, V(1,1)..V(1,n1), L2, V(2,1)..`` where any position may be NULL:
a tuple for a shallow node carries no values for the deeper levels.  SQL sorts
NULLs consistently at one end; the paper's tagger relies on a parent tuple
(NULL at the deeper positions) sorting *before* its children's tuples, so we
adopt NULLS FIRST throughout.

Python 3 refuses to compare ``None`` with other values, and refuses to compare
``int`` with ``str``.  :class:`NoneFirst` wraps a single value to make it
totally ordered: ``None`` sorts before everything, and values of different
types are ordered by type name first (a deterministic, if arbitrary, rule that
only matters for pathological mixed-type columns).

:class:`NoneFirst` is the *reference* definition of that order; the tuple
engine and the backend validation sort with it.  The hot paths compare
millions of keys and use the equivalent wrapper-free encoding of
:func:`flat_key`, which compares entirely in C: the XML integration
(:mod:`repro.xmlgen.streams`) row by row, the batch engine's ``ORDER BY``
column by column (:func:`column_keys`).  That sort never scans a key
column for its value types: the caller passes them, derived from the plan
and the tables' kept facts.  Where they show that the keys are the whole
row and each column holds one type (:func:`rows_are_keys`) it sorts the
rows themselves, with no key at all.  Otherwise, where no key column
mixes types, it first checks whether the rows are already in key order
(:func:`in_key_order`, plain tuple comparisons in C): the pipelines
mostly emit them so, and then nothing is sorted.
"""

from functools import total_ordering
from itertools import repeat, tee
from operator import is_not, itemgetter, le, length_hint
from types import NoneType


@total_ordering
class NoneFirst:
    """Wrapper making one nullable value totally ordered, NULLs first."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def _rank(self):
        value = self.value
        if value is None:
            return (0, "", None)
        return (1, type(value).__name__, value)

    def __eq__(self, other):
        if not isinstance(other, NoneFirst):
            return NotImplemented
        return self._rank()[:2] == other._rank()[:2] and self.value == other.value

    def __lt__(self, other):
        if not isinstance(other, NoneFirst):
            return NotImplemented
        mine, theirs = self._rank(), other._rank()
        if mine[:2] != theirs[:2]:
            return mine[:2] < theirs[:2]
        if self.value is None:  # both None: equal
            return False
        return self.value < other.value


def sort_key(values):
    """Map a sequence of nullable values to a tuple usable as a sort key.

    The result compares element-wise with NULLS FIRST semantics and never
    raises ``TypeError`` on mixed types.
    """
    return tuple(NoneFirst(v) for v in values)


class _TypeTags(dict):
    """``type -> tag`` for :func:`flat_key`: ``""`` for NULL, the type's
    name otherwise (looked up once per type, so equal tags are the same
    string object and tuple comparison short-circuits on identity)."""

    def __missing__(self, kind):
        tag = self[kind] = kind.__name__
        return tag


#: The tag of every value type seen so far.  ``""`` sorts before every
#: type name, which is what puts NULLs first.
TYPE_TAGS = _TypeTags({type(None): ""})


def flat_key(values):
    """The wrapper-free twin of :func:`sort_key`: a plain tuple
    ``(tag, value, tag, value, ...)`` with one ``(tag, value)`` pair per
    position, where ``tag`` is ``""`` for NULL and the value's type name
    otherwise.  Two flat keys of the same width compare exactly as the
    corresponding :class:`NoneFirst` tuples — NULLs first, mixed types by
    type name, equal types by value — without a Python-level ``__lt__``
    per position."""
    key = []
    for value in values:
        key.append(TYPE_TAGS[type(value)])
        key.append(value)
    return tuple(key)


def column_keys(columns, kinds):
    """:func:`flat_key` built column-wise, with what it does not need left
    out: one key per row of ``columns`` (equal-length, non-empty value
    lists), comparing as that row's :func:`sort_key`.  ``kinds`` holds,
    per column, the value types it may hold (``NoneType`` for a NULL) —
    facts the caller knows from the plan and the tables; a superset is
    correct, only slower.  A column of one type holding one value orders
    nothing and is dropped; any other column of one type compares raw.
    In front of a column of one type and NULLs goes ``value is not None``
    (False sorts first: all a tag has to tell there), in front of a
    column of mixed types its tag column.  None when every column was
    dropped (all rows tie).  The batch engine sorts with these keys, so
    the comparisons run in C."""
    parts = []
    for column, types in zip(columns, kinds):
        if len(types) == 1:
            if column.count(column[0]) == len(column):
                continue
        elif len(types) == 2 and NoneType in types:
            parts.append(list(map(is_not, column, repeat(None))))
        else:
            parts.append(list(map(TYPE_TAGS.__getitem__, map(type, column))))
        parts.append(column)
    return list(zip(*parts)) if parts else None


def in_key_order(rows, positions):
    """Whether ``rows`` never descend in the :func:`sort_key` order of
    their values at ``positions``, so that a stable sort would leave them
    as they are.  Each of those positions must hold one value type, or
    that type and NULL (where types mix, Python's order is not the
    type-name order).  Neighbouring keys compare as plain tuples, in C,
    built as the pass goes and stopping at the first descent.  Python
    refuses to compare a NULL with a value, which is where two keys first
    differ when one of them is NULL there: then the keys are listed, and
    each such pair alone is decided by :func:`flat_key` (NULLS FIRST)."""
    if not positions:
        return True
    left, right = tee(map(itemgetter(*positions), rows))
    next(right, None)
    try:
        return all(map(le, left, right))
    except TypeError:
        pass
    keys = list(zip(*[map(itemgetter(p), rows) for p in positions]))
    left, right = iter(keys), iter(keys)
    next(right)
    while True:
        try:
            return all(map(le, left, right))
        except TypeError:
            # ``map`` took the pair from both iterators: the next pass
            # starts after it.
            later = len(keys) - length_hint(right) - 1
            if flat_key(keys[later]) < flat_key(keys[later - 1]):
                return False


def rows_are_keys(arity, key_positions, kinds, constant=()):
    """Whether rows of ``arity`` columns sort by the columns at
    ``key_positions`` (of value types ``kinds``) exactly as the rows
    themselves compare: the keys are the whole row in order — leaving
    aside the positions in ``constant``, which hold one value throughout
    and tie everywhere — and no key column may hold two types (a column
    of NULLs only is equal throughout, never compared by ``<``).  Then
    ``sorted(rows)`` is the :func:`sort_key` order, ties in input order."""
    return ([p for p in key_positions if p not in constant]
            == [p for p in range(arity) if p not in constant]
            and all(len(types) == 1 for types in kinds))
