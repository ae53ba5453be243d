import pytest

from wordmix import (
    Alphabet,
    BudgetExceededError,
    build,
    census,
    enumerate_members,
    is_member,
    word_from_str,
)
from conftest import Trace, complete_graph, enumerate_walk_traces, plist


def test_members_trivial_language():
    # only the empty word balances these four counts
    p = plist("ab", "ab", "ba", "a", "b")
    assert enumerate_members(p, 8) == [()]


def test_members_small():
    p = plist("ab", "ab", "ba")
    got = enumerate_members(p, 3)
    assert () in got
    assert word_from_str("aba") in got
    assert word_from_str("ab") not in got
    # agrees with the package membership predicate word by word
    for n in range(4):
        for w in Alphabet.from_string("ab").words_of_length(n):
            assert (w in got) == is_member(w, p)
    # length-lexicographic order
    assert got == sorted(got, key=lambda w: (len(w), w))


def test_members_maxlen_zero():
    assert enumerate_members(plist("ab", "ab", "ba"), 0) == [()]


def test_members_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_members(plist("ab", "ab", "ba"), 40)
    enumerate_members(plist("ab", "ab", "ba"), 3, budget=15)
    with pytest.raises(BudgetExceededError):
        enumerate_members(plist("ab", "ab", "ba"), 3, budget=14)


def test_census_unary():
    # every unary word is a member, so counts follow the power rule: 1 each
    c = census(plist("a", "a", "a"), 5)
    assert c.counts == (1, 1, 1, 1, 1, 1)


def test_census_three_params():
    # members are b plus words like bab; the per-length counts happen to
    # follow the Fibonacci sequence on this instance
    c = census(plist("ab", "ab", "ba", "a"), 9)
    assert c.counts == (1, 1, 1, 2, 3, 5, 8, 13, 21, 34)


def test_census_csv_format():
    c = census(plist("ab", "ab", "ba", "a", "b"), 3)
    assert c.to_csv() == "length,count\n0,1\n1,0\n2,0\n3,0\n"


def test_walk_traces_maxlen_zero():
    d2 = build(Alphabet.from_string("ab"), 2)
    got = enumerate_walk_traces(d2, d2.vertices(), 0)
    assert got == {Trace((v,), frozenset()) for v in d2.vertices()}


def test_walk_traces_contains_golden():
    k4 = complete_graph(4)
    # dec keeps a walk's first vertex as its path's first vertex, and the
    # golden path starts at 1
    got = enumerate_walk_traces(k4, (1,), 9)
    golden = Trace((1, 2, 4), frozenset({(2, 3, 2), (3, 4, 3), (2, 3, 4, 2)}))
    assert golden in got


def test_walk_traces_budget():
    d2 = build(Alphabet.from_string("ab"), 2)
    with pytest.raises(BudgetExceededError):
        enumerate_walk_traces(d2, d2.vertices(), 20, budget=1000)
