"""Tests for FD reasoning (repro.relational.dependencies)."""

from hypothesis import given, strategies as st

from repro.relational.dependencies import (
    FunctionalDependency,
    attribute_closure,
)

FD = FunctionalDependency.of


class TestClosure:
    def test_reflexive(self):
        assert attribute_closure(["a"], []) == {"a"}

    def test_single_step(self):
        assert attribute_closure(["a"], [FD(["a"], ["b"])]) == {"a", "b"}

    def test_transitive(self):
        fds = [FD(["a"], ["b"]), FD(["b"], ["c"])]
        assert attribute_closure(["a"], fds) == {"a", "b", "c"}

    def test_composite_lhs(self):
        fds = [FD(["a", "b"], ["c"])]
        assert "c" not in attribute_closure(["a"], fds)
        assert "c" in attribute_closure(["a", "b"], fds)

    def test_empty_lhs_fd(self):
        # Constants: {} -> x means x is always derivable.
        assert attribute_closure([], [FD([], ["x"])]) == {"x"}

    def test_chain_through_composite(self):
        fds = [FD(["a"], ["b"]), FD(["b", "a"], ["c"]), FD(["c"], ["d"])]
        assert attribute_closure(["a"], fds) == {"a", "b", "c", "d"}

    def test_no_spurious_attributes(self):
        fds = [FD(["x"], ["y"])]
        assert attribute_closure(["a"], fds) == {"a"}


# -- property-based ----------------------------------------------------------

attrs = st.sampled_from("abcdef")
fd_strategy = st.builds(
    lambda l, r: FD(l, r),
    st.sets(attrs, min_size=0, max_size=3),
    st.sets(attrs, min_size=1, max_size=3),
)
fds_strategy = st.lists(fd_strategy, max_size=8)
attrset = st.sets(attrs, max_size=4)


@given(attrset, fds_strategy)
def test_closure_contains_input(start, fds):
    assert set(start) <= attribute_closure(start, fds)


@given(attrset, fds_strategy)
def test_closure_idempotent(start, fds):
    once = attribute_closure(start, fds)
    assert attribute_closure(once, fds) == once


@given(attrset, attrset, fds_strategy)
def test_closure_monotone(a, b, fds):
    closure_a = attribute_closure(a, fds)
    closure_ab = attribute_closure(a | b, fds)
    assert closure_a <= closure_ab


@given(attrset, fds_strategy)
def test_closure_sound(start, fds):
    """Every FD whose lhs is inside the closure has rhs inside too."""
    closure = attribute_closure(start, fds)
    for fd in fds:
        if fd.lhs <= closure:
            assert fd.rhs <= closure
