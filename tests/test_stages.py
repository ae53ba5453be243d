"""The order of solve_system's stages, and the invariant it rests on.

The rational relaxation runs before the integer lattice; the box search
over the lattice then needs no exit of its own for an empty kernel or a
coordinate that no kernel vector moves.
"""

from hypothesis import assume, example, given, settings, strategies as st

import wordmix.linarith as linarith
from wordmix.linarith import (LinearSystem, _lattice_solve, _phase1,
                              solve_system)


def _spy(monkeypatch, name):
    """Record the return value of every call to linarith.<name>."""
    results = []
    real = getattr(linarith, name)

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(linarith, name, spy)
    return results


def test_relaxation_refutes_before_the_lattice(monkeypatch):
    # with x >= 1, row 2 (x1 + x2 + x4 = -1) has no rational solution
    lattice = _spy(monkeypatch, "_lattice_solve")
    s = LinearSystem(((-1, 0, -1, 0, 1), (1, 1, 0, 1, 0), (0, 1, -1, 1, 1)),
                     ("eq",) * 3, (-1, -1, -2), (1,) * 5)
    assert not solve_system(s).feasible
    assert lattice == []


def test_lattice_refutes_a_feasible_relaxation(monkeypatch):
    # x + y = 1, x - y = 0: the relaxation has (1/2, 1/2), the lattice
    # nothing, since 2x = 1; every row's gcd is 1, so row normalisation
    # does not see it
    rows, rhs = [[1, 1], [1, -1]], [1, 0]
    assert _phase1(rows, rhs) == ([1, 1], 2)
    lattice = _spy(monkeypatch, "_lattice_solve")
    boxes = _spy(monkeypatch, "_search_box")
    assert not solve_system(LinearSystem(
        tuple(map(tuple, rows)), ("eq", "eq"), tuple(rhs), (0, 0))).feasible
    assert lattice == [None]
    assert boxes == []


def _systems(n, m):
    return st.tuples(
        st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                          min_size=n, max_size=n), min_size=m, max_size=m),
        st.lists(st.integers(min_value=-4, max_value=4),
                 min_size=m, max_size=m))


@given(st.tuples(st.integers(min_value=1, max_value=5),
                 st.integers(min_value=1, max_value=4))
       .flatmap(lambda nm: _systems(*nm)))
# an empty kernel; x0 = (2, -3, 0) with kernel (0, 1, 1), which leaves
# the first coordinate where it is
@example(([[1, 0], [0, 1]], [1, 2]))
@example(([[1, 0, 0], [0, 1, -1]], [2, -3]))
@settings(max_examples=300, deadline=None)
def test_feasible_relaxation_leaves_unmoved_coordinates_nonnegative(system):
    rows, rhs = system
    assume(_phase1(rows, rhs) is not None)
    lattice = _lattice_solve(rows, rhs)
    assume(lattice is not None)
    x0, kernel = lattice
    # with an empty kernel this covers every coordinate
    for i, v in enumerate(x0):
        if not any(vec[i] for vec in kernel):
            assert v >= 0
