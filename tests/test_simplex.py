"""The integer phase-1 tableau against the Fraction reference it replaced."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import reference_phase1
from wordmix.linarith import _phase1


def _as_fractions(point):
    num, den = point
    assert den > 0
    return [Fraction(v, den) for v in num]


@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                                min_size=n, max_size=n),
                       min_size=1, max_size=5)),
    st.data())
@settings(max_examples=300, deadline=None)
def test_phase1_matches_fraction_reference(rows, data):
    rhs = data.draw(st.lists(st.integers(min_value=-4, max_value=4),
                             min_size=len(rows), max_size=len(rows)))
    got = _phase1(rows, rhs)
    want = reference_phase1(rows, rhs)
    assert (got is None) == (want is None)
    if got is not None:
        assert _as_fractions(got) == want


def test_ratio_tie_goes_to_the_least_basis_index():
    # a ratio test ties on the way; breaking it by row order instead of
    # by basis index ends at (0, 13/20, 3/5, 9/20)
    rows = [[0, -1, 2, 1], [1, -2, 2, -2], [-2, -2, -1, 2]]
    rhs = [1, -1, -1]
    want = [Fraction(3, 2), Fraction(1, 8), Fraction(0), Fraction(9, 8)]
    assert reference_phase1(rows, rhs) == want
    assert _as_fractions(_phase1(rows, rhs)) == want


def test_duplicate_rows_leave_an_artificial_basic_at_zero():
    # one pivot satisfies both rows; the second artificial stays basic at
    # level 0, which is feasible, not a refutation
    rows = [[1, 1], [1, 1]]
    rhs = [2, 2]
    assert reference_phase1(rows, rhs) == [2, 0]
    assert _as_fractions(_phase1(rows, rhs)) == [2, 0]
    assert _phase1([[1, 1], [1, 1]], [2, 3]) is None
