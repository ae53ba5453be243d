import random
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from wordmix import (
    Alphabet,
    BudgetExceededError,
    LinearSystem,
    build,
    build_balance_system,
    build_psi_branches,
    build_pumping_system,
    enumerate_traces,
    is_trace,
    solve_system,
)

from wordmix.debruijn import OccTable
from wordmix.linarith import homogeneous_nontrivial

from conftest import ilp_feasible, plist


D2 = build(Alphabet.from_string("ab"), 2)
# path ba,ab with the two-cycle attached
T1 = is_trace(D2, [(2, 1), (2, 1, 2)])


def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(((1, 2),), ("eq", "eq"), (0,), (0, 0))
    with pytest.raises(ValueError):
        LinearSystem(((1, 2),), ("eq",), (0,), (0,))
    with pytest.raises(ValueError):
        LinearSystem(((1,),), ("le",), (0,), (0,))


def test_satisfied_by():
    s = LinearSystem(((1, 1), (1, -1)), ("eq", "ge"), (4, 0), (0, 0))
    assert s.satisfied_by((3, 1))
    assert s.satisfied_by((2, 2))
    assert not s.satisfied_by((1, 3))  # ge row violated
    assert not s.satisfied_by((5, -1))  # lower bound violated
    assert not s.satisfied_by((4,))  # wrong arity


def test_to_json_dict():
    s = LinearSystem(((1, -1),), ("eq",), (0,), (1, 1), label="balance")
    assert s.to_json_dict() == {
        "label": "balance",
        "coeffs": [[1, -1]],
        "rels": ["eq"],
        "rhs": [0],
        "lower": [1, 1],
    }


def test_ilp_simple_feasible():
    res = ilp_feasible([[1, -1]], [0], (1, 1))
    assert res.feasible
    assert res.witness == (1, 1)


def test_ilp_strict_row():
    res = ilp_feasible([[1]], [3], (0,), strict=[True])
    assert res.feasible
    assert res.witness[0] >= 4


def test_ilp_lattice_infeasible():
    # parity obstruction: 2x - 2y = 1 has no integer solution at all
    res = ilp_feasible([[2, -2]], [1], (0, 0))
    assert not res.feasible


def test_ilp_inconsistent_rows():
    res = ilp_feasible([[1, 1], [1, 1]], [1, 2], (0, 0))
    assert not res.feasible


def test_ilp_bound_infeasible():
    # x + y = 1 with both variables at least 1
    res = ilp_feasible([[1, 1]], [1], (1, 1))
    assert not res.feasible


def test_ilp_empty_variable_set():
    assert ilp_feasible([[], []], [0, 0], ()).feasible
    assert not ilp_feasible([[]], [3], ()).feasible


def test_solver_budget():
    # the root relaxation is fractional, so one node cannot settle this
    with pytest.raises(BudgetExceededError):
        ilp_feasible([[5, -3, 2]], [11], (0, 0, 0), node_budget=1)
    res = ilp_feasible([[5, -3, 2]], [11], (0, 0, 0))
    assert res.feasible
    assert sum(a * v for a, v in zip((5, -3, 2), res.witness)) == 11


def test_relaxation_refutes_before_wide_rounds(monkeypatch):
    """A system without a rational solution stops after the first, narrow
    search round instead of widening up to the completeness bound."""
    import wordmix.linarith as linarith
    caps = []
    real = linarith._search_box

    def spy(rows, rhs, n, cap, allowance):
        caps.append(cap)
        return real(rows, rhs, n, cap, allowance)

    monkeypatch.setattr(linarith, "_search_box", spy)
    # with x >= 1, row 2 (x1 + x2 + x4 = -1) has no rational solution,
    # but the lattice point has negative entries, so the search starts
    s = LinearSystem(((-1, 0, -1, 0, 1), (1, 1, 0, 1, 0), (0, 1, -1, 1, 1)),
                     ("eq",) * 3, (-1, -1, -2), (1,) * 5)
    assert not solve_system(s).feasible
    assert caps == [16]


def test_homogeneous_fixtures():
    # all-zero rows: the single multiplicity pumps freely
    res = homogeneous_nontrivial(((0,), (0,)))
    assert res.feasible and res.witness == (1,)
    # opposite unit imbalances cancel
    res = homogeneous_nontrivial(((1, -1),))
    assert res.feasible and res.witness == (1, 1)
    # no variables: y != 0 is impossible
    assert not homogeneous_nontrivial((), n_vars=0).feasible
    assert not homogeneous_nontrivial(((),), n_vars=0).feasible
    # forced to zero
    assert not homogeneous_nontrivial(((1, 1),)).feasible


def test_homogeneous_witness_validates():
    rows = ((2, -1, 0), (0, 1, -2))
    res = homogeneous_nontrivial(rows)
    assert res.feasible
    y = res.witness
    assert any(y) and all(v >= 0 for v in y)
    for row in rows:
        assert sum(a * v for a, v in zip(row, y)) == 0


def test_balance_system_t1():
    p = plist("ab", "ab", "ba", "a")
    s = build_balance_system(T1, p)
    assert s.n_rows == 2 and s.n_vars == 1
    assert s.lower == (1,)
    assert set(s.rels) == {"eq"}
    # both components already agree, so the rows are trivial
    assert s.coeffs == ((0,), (0,))
    assert s.rhs == (0, 0)
    res = solve_system(s)
    assert res.feasible and res.witness == (1,)


def test_balance_system_t1_with_b():
    p = plist("ab", "ab", "ba", "a", "b")
    s = build_balance_system(T1, p)
    assert s.n_rows == 3
    # the b-row forces 1 + x = 2 + x
    assert not solve_system(s).feasible


def test_pumping_system_t1():
    p4 = plist("ab", "ab", "ba", "a", "b")
    rows = build_pumping_system(T1, p4)
    assert rows == ((0,), (0,), (0,))
    # balance fails for this list but pumping still holds
    assert homogeneous_nontrivial(rows).feasible


def test_zero_cycle_trace_systems():
    p = plist("ab", "ab", "ba")
    t = is_trace(D2, [(2, 1)])
    s = build_balance_system(t, p)
    assert s.n_vars == 0
    # phi(ba) + phi(walk) = (0,1) + (1,0): components agree
    assert solve_system(s).feasible
    assert not homogeneous_nontrivial(build_pumping_system(t, p)).feasible


def test_psi_branches_t1():
    p1 = plist("ab", "ab", "ba", "a")
    p2 = plist("ab", "ab", "ba", "a", "b")
    branches = build_psi_branches(T1, p1, p2)
    # 2 per adjacent pair of the broken chain, both held/broken roles
    assert len(branches) == 2 * (p2.k - 1) + 2 * (p1.k - 1)
    assert all(b.lower == (1,) for b in branches)
    feasible = [b for b in branches if solve_system(b).feasible]
    # theta^a > theta^b asks 0 >= 2: impossible. theta^b > theta^a asks
    # 0 >= 0: the single way this trace distinguishes the two lists.
    assert [b.label for b in feasible] == [
        "list1 balanced, other pair 2 component 3 below component 2"]
    res = solve_system(feasible[0])
    assert feasible[0].satisfied_by(res.witness)


def test_psi_branches_same_list():
    p = plist("ab", "ab", "ba", "a")
    for b in build_psi_branches(T1, p, p):
        assert not solve_system(b).feasible


def test_psi_branches_permuted_list():
    p1 = plist("ab", "ab", "ba", "a")
    p2 = plist("ab", "a", "ab", "ba")
    for b in build_psi_branches(T1, p1, p2):
        assert not solve_system(b).feasible


def test_psi_branches_held_shares_concatenate():
    """held=1 and held=2 build the two shares of the full list, in order,
    with or without tables, and every trace system built without a table
    equals the one built with it. In D^3 the lists are shorter than the
    graph's dimension, so the table-free systems must count in the
    trace's own graph."""
    cases = ((D2, plist("ab", "ab", "ba", "a"),
              plist("ab", "ab", "ba", "a", "b"), 50),
             (build(Alphabet.from_string("ab"), 3), plist("ab", "ab", "ba"),
              plist("ab", "ab", "ba", "a"), 10))
    for g, p1, p2, step in cases:
        tables = (OccTable(g, p1), OccTable(g, p2))
        for T in islice(enumerate_traces(g), 0, 2000, step):
            for p, table in zip((p1, p2), tables):
                assert (build_balance_system(T, p)
                        == build_balance_system(T, p, table))
                assert (build_pumping_system(T, p)
                        == build_pumping_system(T, p, table))
            assert (build_psi_branches(T, p1, p2)
                    == build_psi_branches(T, p1, p2, tables))
            for tabs in (None, tables):
                both = build_psi_branches(T, p1, p2, tabs)
                one = build_psi_branches(T, p1, p2, tabs, held=1)
                two = build_psi_branches(T, p1, p2, tabs, held=2)
                assert both == one + two
                assert (len(one) == 2 * (p2.k - 1)
                        and len(two) == 2 * (p1.k - 1))
                assert all(b.label.startswith("list1") for b in one)
                assert all(b.label.startswith("list2") for b in two)
    with pytest.raises(ValueError):
        build_psi_branches(T1, p1, p2, held=3)


def test_psi_branches_alphabet_mismatch():
    p1 = plist("ab", "ab")
    p2 = plist("abc", "ab")
    with pytest.raises(ValueError):
        build_psi_branches(T1, p1, p2)


def _brute_eq(rows, rhs, lower, box):
    n = len(lower)
    for zs in product(range(box + 1), repeat=n):
        x = tuple(l + z for l, z in zip(lower, zs))
        if all(sum(a * v for a, v in zip(row, x)) == b
               for row, b in zip(rows, rhs)):
            return x
    return None


small_entries = st.integers(min_value=-3, max_value=3)


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(small_entries, min_size=n, max_size=n),
                 min_size=1, max_size=3),
        st.just(n))),
    st.data())
@settings(max_examples=120, deadline=None)
def test_ilp_matches_brute_force(rows_n, data):
    rows, n = rows_n
    rhs = data.draw(st.lists(st.integers(min_value=-6, max_value=6),
                             min_size=len(rows), max_size=len(rows)))
    lower = tuple(data.draw(st.integers(min_value=0, max_value=1))
                  for _ in range(n))
    res = ilp_feasible(rows, rhs, lower)
    brute = _brute_eq(rows, rhs, lower, box=8)
    if brute is not None:
        assert res.feasible
    if res.feasible:
        x = res.witness
        assert all(v >= l for v, l in zip(x, lower))
        assert all(sum(a * v for a, v in zip(row, x)) == b
                   for row, b in zip(rows, rhs))


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n),
                       min_size=1, max_size=3)))
@settings(max_examples=120, deadline=None)
def test_homogeneous_matches_brute_force(rows):
    n = len(rows[0])
    res = homogeneous_nontrivial(rows)
    brute = None
    for ys in product(range(7), repeat=n):
        if any(ys) and all(sum(a * v for a, v in zip(row, ys)) == 0
                           for row in rows):
            brute = ys
            break
    if brute is not None:
        assert res.feasible
    if res.feasible:
        y = res.witness
        assert any(y) and all(v >= 0 for v in y)
        assert all(sum(a * v for a, v in zip(row, y)) == 0 for row in rows)


def test_feasibility_invariances():
    """Row order and positive row scaling never change the verdict."""
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        lower = tuple(rng.randint(0, 1) for _ in range(n))
        base = ilp_feasible(rows, rhs, lower).feasible

        order = list(range(m))
        rng.shuffle(order)
        permuted = ilp_feasible([rows[i] for i in order],
                                [rhs[i] for i in order], lower).feasible
        assert permuted == base

        c = rng.randint(2, 5)
        j = rng.randrange(m)
        scaled_rows = [[c * a for a in row] if i == j else row
                       for i, row in enumerate(rows)]
        scaled_rhs = [c * b if i == j else b for i, b in enumerate(rhs)]
        assert ilp_feasible(scaled_rows, scaled_rhs, lower).feasible == base
