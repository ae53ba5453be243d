import random

import pytest
from hypothesis import given, settings, strategies as st

from wordmix import (
    Alphabet,
    CompositionUndefinedError,
    NotAWalkError,
    add_vectors,
    build,
    check_walk,
    comp,
    complete_graph,
    dec,
    is_cycle,
    is_path,
    walk_occ,
    word_from_str,
)

from conftest import plist


K4 = complete_graph(4)
D2 = build(Alphabet.from_string("ab"), 2)


def vertices_of(walk):
    return frozenset(walk)


def insert_occ_additivity(g, walk, cyc, params) -> bool:
    """Splicing a cycle adds exactly its own occurrence vector."""
    spliced = comp(g, walk, (cyc,))
    lhs = walk_occ(g, spliced, params)
    rhs = add_vectors(walk_occ(g, walk, params), walk_occ(g, cyc, params))
    return lhs == rhs


def test_check_walk():
    check_walk(K4, (1, 2, 3))
    with pytest.raises(NotAWalkError):
        check_walk(K4, ())
    with pytest.raises(NotAWalkError):
        check_walk(K4, (1, 5))
    with pytest.raises(NotAWalkError):
        check_walk(D2, (0, 3))  # no edge aa -> bb


def test_path_cycle_predicates():
    assert is_path((1,))
    assert is_path((1, 2, 3))
    assert not is_path((1, 2, 1))
    assert not is_path(())
    assert is_cycle((1, 2, 1))
    assert is_cycle((1, 1))  # self loop
    assert not is_cycle((1,))
    assert not is_cycle((1, 2, 1, 2, 1))  # interior repeat


def test_dec_comp_golden():
    """Peeling cycles off a walk, innermost first, then splicing them back."""
    w = (1, 2, 3, 2, 3, 4, 3, 4, 2, 4)
    d = dec(K4, w)
    assert d.path == (1, 2, 4)
    assert d.cycles == ((2, 3, 2), (3, 4, 3), (2, 3, 4, 2))
    assert comp(K4, d.path, d.cycles) == w
    # edges are conserved between the walk and its decomposition
    assert (len(w) - 1) == (len(d.path) - 1) + sum(len(c) - 1 for c in d.cycles)
    assert is_path(d.path)
    for c in d.cycles:
        assert is_cycle(c)


def test_dec_trivial_cases():
    d = dec(K4, (3,))
    assert d.path == (3,) and d.cycles == ()
    d = dec(K4, (2, 2))
    assert d.path == (2,) and d.cycles == ((2, 2),)


def test_comp_identity_on_empty():
    assert comp(K4, (1, 2), ()) == (1, 2)


def test_comp_undefined():
    # cycle root never appears on the spine
    with pytest.raises(CompositionUndefinedError):
        comp(K4, (1, 2), ((3, 4, 3),))
    # root occurs, but only after a repeated vertex: splicing (1,2,1) first
    # gives (1,2,1,3), where the prefix before 3 is not a path
    with pytest.raises(CompositionUndefinedError):
        comp(K4, (1, 3), ((3, 4, 3), (1, 2, 1)))


def test_comp_rejects_bad_pieces():
    with pytest.raises(NotAWalkError):
        comp(K4, (1, 5), ())
    with pytest.raises(ValueError):
        comp(K4, (1, 2), ((2, 3),))  # not a cycle


def _random_walk(rng, g, verts, max_steps):
    v = rng.choice(verts)
    walk = [v]
    for _ in range(rng.randint(0, max_steps)):
        succ = g.successors(walk[-1])
        if not succ:
            break
        walk.append(rng.choice(succ))
    return tuple(walk)


def test_dec_comp_round_trip_random():
    rng = random.Random(7)
    d3 = build(Alphabet.from_string("ab"), 3)
    for g in (K4, D2, d3):
        verts = tuple(g.vertices())
        for _ in range(500):
            w = _random_walk(rng, g, verts, 40)
            d = dec(g, w)
            assert comp(g, d.path, d.cycles) == w
            assert (len(w) - 1) == (len(d.path) - 1) + sum(len(c) - 1 for c in d.cycles)


@given(st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=150, deadline=None)
def test_dec_path_is_duplicate_free(start, data):
    steps = data.draw(st.lists(st.integers(min_value=0, max_value=1), max_size=25))
    walk = [start]
    for b in steps:
        walk.append(D2.successors(walk[-1])[b])
    d = dec(D2, tuple(walk))
    assert len(set(d.path)) == len(d.path)
    assert set(vertices_of(d.path)) | set(v for c in d.cycles for v in c) == set(walk)


def test_insert_occ_additivity():
    p = plist("ab", "ab", "ba", "a")
    assert insert_occ_additivity(D2, (2, 1), (2, 1, 2), p)
    assert insert_occ_additivity(D2, (0, 1, 2), (1, 3, 2, 1), p)
