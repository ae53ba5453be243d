import random

import pytest
from hypothesis import given, settings, strategies as st

from wordmix import Alphabet, build, comp, dec, enumerate_traces, walk_occ
from wordmix.decomp import check_walk, is_cycle, is_path
from wordmix.errors import CompositionUndefinedError, NotAWalkError
from wordmix.words import add_vectors

from conftest import complete_graph, plist


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


def comp_copy_by_copy(g, walk, cycles):
    """The splice comp replaced: one copy at a time, each at the first
    occurrence of its root, with every check made per copy."""
    check_walk(g, walk)
    cur = walk
    for cyc in reversed(cycles):
        check_walk(g, cyc)
        if not is_cycle(cyc):
            raise ValueError(f"{cyc} is not a rooted cycle")
        root = cyc[0]
        if root not in cur:
            raise CompositionUndefinedError(
                f"cycle root {root} does not occur in the walk")
        i = cur.index(root)
        prefix = cur[:i + 1]
        if len(set(prefix)) != len(prefix):
            raise CompositionUndefinedError(
                f"no duplicate-free prefix reaches the first occurrence of {root}")
        cur = prefix + cyc[1:] + cur[i + 1:]
    return cur


def _comp_or_error(fn, g, walk, cycles):
    try:
        return fn(g, walk, cycles)
    except ValueError as e:
        return type(e), str(e)


def test_comp_splices_runs_as_copy_by_copy():
    """comp splices a run of equal cycles at once; on every D2 trace with
    random exponents, and on random runs of random rooted cycles (most of
    them not composable), it gives the copy-by-copy walk or error."""
    rng = random.Random(17)
    traces = list(enumerate_traces(D2))
    rooted = sorted({c for t in traces for c in t.cycles})
    assert len(rooted) == 14
    paths = sorted({t.path for t in traces})
    cases = []
    for t in traces:
        runs = [[c] * rng.randint(1, 40) for c in t.cycles]
        cases.append((t.path, tuple(c for run in runs for c in run)))
    for _ in range(500):
        cycles = []
        for _ in range(rng.randint(1, 5)):
            cycles.extend([rng.choice(rooted)] * rng.randint(1, 4))
        cases.append((rng.choice(paths), tuple(cycles)))
    composed = 0
    for path, cycles in cases:
        got = _comp_or_error(comp, D2, path, cycles)
        assert got == _comp_or_error(comp_copy_by_copy, D2, path, cycles)
        composed += isinstance(got[0], int)
    assert len(traces) < composed < len(cases)


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
