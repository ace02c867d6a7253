"""Tests for NULLS FIRST total ordering (repro.common.ordering)."""

from hypothesis import given, strategies as st

from repro.common.ordering import (
    NoneFirst,
    flat_key,
    sort_key,
)


class TestNoneFirst:
    def test_none_sorts_before_values(self):
        assert NoneFirst(None) < NoneFirst(0)
        assert NoneFirst(None) < NoneFirst(-10)
        assert NoneFirst(None) < NoneFirst("")

    def test_equal_nones(self):
        assert NoneFirst(None) == NoneFirst(None)
        assert not NoneFirst(None) < NoneFirst(None)

    def test_same_type_ordering(self):
        assert NoneFirst(1) < NoneFirst(2)
        assert NoneFirst("a") < NoneFirst("b")
        assert not NoneFirst(2) < NoneFirst(1)

    def test_mixed_types_ordered_by_type_name(self):
        # int < str because "int" < "str"
        assert NoneFirst(99) < NoneFirst("a")

    def test_mixed_types_do_not_raise(self):
        values = [NoneFirst(v) for v in ["b", 2, None, 1.5, "a"]]
        assert sorted(values)[0].value is None

    def test_equality_against_other_types(self):
        assert NoneFirst(1) != 1
        assert (NoneFirst(1) == 1) is False


class TestSortKey:
    def test_tuple_comparison(self):
        assert sort_key([1, None]) < sort_key([1, 2])
        assert sort_key([1, 2]) < sort_key([2, None])

    def test_sorting_rows_with_nulls(self):
        rows = [(1, 2), (1, None), (None, 5), (1, 1)]
        ordered = sorted(rows, key=sort_key)
        assert ordered == [(None, 5), (1, None), (1, 1), (1, 2)]


@given(st.lists(st.lists(st.one_of(st.none(), st.integers()), max_size=4),
                max_size=8))
def test_sort_key_total_order(rows):
    """Sorting never raises, and every neighbour pair is in order."""
    ordered = sorted(rows, key=sort_key)
    for a, b in zip(ordered, ordered[1:]):
        assert sort_key(a) <= sort_key(b)


# ---------------------------------------------------------------------------
# flat_key: the wrapper-free encoding the XML integration sorts with.  It
# must define exactly NoneFirst's order, mixed types included.

_NULLABLE_MIXED = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=3),
    st.floats(allow_nan=False), st.dates(),
)


class TestFlatKey:
    def test_shape(self):
        assert flat_key([1, None, "a"]) == ("int", 1, "", None, "str", "a")
        assert flat_key([]) == ()

    def test_nulls_first_and_type_name_rule(self):
        assert flat_key([None]) < flat_key([0]) < flat_key(["a"])
        assert flat_key([2.5]) < flat_key([1])      # "float" < "int"
        assert flat_key([True]) < flat_key([0])     # "bool" < "int"
        assert flat_key([True]) != flat_key([1])    # as NoneFirst, not as ==

    @given(st.lists(st.lists(_NULLABLE_MIXED, min_size=3, max_size=3),
                    max_size=12))
    def test_sorts_exactly_as_sort_key(self, rows):
        assert sorted(rows, key=flat_key) == sorted(rows, key=sort_key)

    @given(st.lists(_NULLABLE_MIXED, min_size=2, max_size=2),
           st.lists(_NULLABLE_MIXED, min_size=2, max_size=2))
    def test_every_comparison_agrees_with_sort_key(self, left, right):
        flat_left, flat_right = flat_key(left), flat_key(right)
        ref_left, ref_right = sort_key(left), sort_key(right)
        assert (flat_left < flat_right) == (ref_left < ref_right)
        assert (flat_left == flat_right) == (ref_left == ref_right)
        assert (flat_left > flat_right) == (ref_left > ref_right)
