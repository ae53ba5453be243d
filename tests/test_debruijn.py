import pytest
from hypothesis import given, settings, strategies as st

from wordmix import (
    Alphabet,
    BadStartLengthError,
    DimensionCapError,
    build,
    enumerate_cycles,
    enumerate_paths,
    occ_vector,
    word_from_str,
    word_of_walk,
    walk_occ,
    walk_of_word,
)
from wordmix.debruijn import OccTable, to_dot

from conftest import plist


AB = Alphabet.from_string("ab")
D2 = build(AB, 2)
D3 = build(AB, 3)


def test_sizes():
    assert D2.vertex_count == 4
    assert D2.edge_count == 8
    assert D3.vertex_count == 8
    assert D3.edge_count == 16
    abc = Alphabet.from_string("abc")
    g = build(abc, 2)
    assert g.vertex_count == 9
    assert g.edge_count == 27


def test_vertex_cap():
    with pytest.raises(DimensionCapError):
        build(AB, 30)
    # explicit cap overrides the default
    build(AB, 13, max_vertices=1 << 13)


def test_encode_decode():
    for v in D3.vertices():
        assert D3.encode(D3.vertex_word(v)) == v
    assert D2.encode(word_from_str("ba")) == 2
    assert D2.vertex_word(2) == word_from_str("ba")
    with pytest.raises(BadStartLengthError):
        D2.encode(word_from_str("bab"))


def test_successors_and_edges():
    # from "ab" (code 1) we can go to "ba" (2) and "bb" (3)
    assert D2.successors(1) == (2, 3)
    assert D2.has_edge(1, 2)
    assert D2.has_edge(1, 3)
    assert not D2.has_edge(1, 0)
    for u in D2.vertices():
        for v in D2.successors(u):
            assert D2.shift(u, D2.vertex_word(v)[-1]) == v


def test_walk_of_word_and_back():
    walk = walk_of_word(D2, word_from_str("ba"), word_from_str("bab"))
    assert [D2.vertex_word(v) for v in walk] == [
        word_from_str("ba"),
        word_from_str("ab"),
        word_from_str("ba"),
        word_from_str("ab"),
    ]
    assert word_of_walk(D2, walk) == word_from_str("babab")


def test_walk_of_word_validates_start():
    with pytest.raises(BadStartLengthError):
        walk_of_word(D2, word_from_str("b"), word_from_str("ab"))


@given(st.text(alphabet="ab", min_size=2, max_size=2).map(word_from_str),
       st.text(alphabet="ab", max_size=20).map(word_from_str))
@settings(max_examples=200, deadline=None)
def test_word_walk_round_trip(v, u):
    walk = walk_of_word(D2, v, u)
    assert len(walk) == len(u) + 1
    assert word_of_walk(D2, walk) == v + u


def test_walk_occ_fixtures():
    p = plist("ab", "ab", "ba", "a")
    # single vertex walk contributes nothing
    assert walk_occ(D2, (2,), p) == (0, 0, 0)
    assert walk_occ(D2, (2, 1), p) == (1, 0, 0)
    assert walk_occ(D2, (2, 1, 2), p) == (1, 1, 1)


def test_occ_table_matches_walk_occ():
    """The per-decision table against walk_occ on every cycle and path."""
    for g, p in ((D2, plist("ab", "ab", "ba", "a")),
                 (D3, plist("ab", "aab", "b", "ba", "a"))):
        table = OccTable(g, p)
        for cyc in enumerate_cycles(g):
            assert table.column(cyc) == walk_occ(g, cyc, p)
        for path in enumerate_paths(g):
            start = occ_vector(g.vertex_word(path[0]), p)
            assert table.const(path) == tuple(
                a + b for a, b in zip(start, walk_occ(g, path, p)))
    with pytest.raises(ValueError):
        OccTable(D2, plist("ab", "aba"))


def test_walk_occ_requires_short_params():
    p = plist("ab", "aba")
    with pytest.raises(ValueError):
        walk_occ(D2, (2, 1), p)
    # fine in D^3
    walk_occ(D3, (5,), p)


@given(st.text(alphabet="ab", min_size=2, max_size=2).map(word_from_str),
       st.text(alphabet="ab", max_size=15).map(word_from_str))
@settings(max_examples=300, deadline=None)
def test_occ_additivity(v, u):
    """Occurrence vectors split over the start word and the walk."""
    p = plist("ab", "ab", "ba", "a", "b")
    walk = walk_of_word(D2, v, u)
    lhs = occ_vector(v + u, p)
    rhs = tuple(x + y for x, y in zip(occ_vector(v, p), walk_occ(D2, walk, p)))
    assert lhs == rhs


def test_to_dot():
    dot = to_dot(D2, path=(2, 1), cycles=((2, 1, 2),))
    assert dot.startswith("digraph")
    assert '"ba" -> "ab"' in dot
    assert dot.rstrip().endswith("}")
