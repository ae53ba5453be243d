import itertools
import random
from collections import Counter
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from wordmix import (
    Alphabet,
    CapExceededError,
    NotATraceError,
    OrderedTrace,
    build,
    comp,
    enumerate_traces,
    is_trace,
    walk_occ,
)

from wordmix.traces import (DEFAULT_MAX_CYCLES, DEFAULT_MAX_TRACES, Walk,
                            enumerate_cycles, enumerate_paths)

from conftest import (ExplicitGraph, Trace, as_trace, complete_graph, mtrace,
                      plist, trace)


AB = Alphabet.from_string("ab")
D2 = build(AB, 2)
K4 = complete_graph(4)

# the five-vertex fixture used throughout for attachability verdicts:
# a path 1-2-3 with a lobe 2-4-5 hanging off it
LOBE = ExplicitGraph(
    (1, 2, 3, 4, 5),
    frozenset([(1, 2), (2, 3), (2, 4), (4, 2), (4, 5), (5, 4), (5, 5), (2, 1)]),
)


def test_mtrace_golden():
    w = (1, 2, 3, 2, 3, 4, 3, 4, 2, 4)
    mt = mtrace(K4, w)
    assert mt.path == (1, 2, 4)
    assert dict(mt.cycles) == {(2, 3, 2): 1, (3, 4, 3): 1, (2, 3, 4, 2): 1}
    assert mt.multiplicity((1, 2, 4)) == 1
    assert mt.multiplicity((9, 9)) == 0


def test_mtrace_single_vertex():
    mt = mtrace(K4, (3,))
    assert mt.path == (3,) and mt.cycles == ()


def test_mtrace_repeated_cycle():
    # ba,ab,ba,ab,ba pumps the two-cycle twice
    mt = mtrace(D2, (2, 1, 2, 1, 2))
    assert mt.path == (2,)
    assert dict(mt.cycles) == {(2, 1, 2): 2}


def test_trace_collapses_multiplicity():
    t1 = trace(D2, (2, 1, 2, 1))
    assert t1 == Trace((2, 1), frozenset({(2, 1, 2)}))
    # pumping the cycle once more leaves the trace unchanged
    assert trace(D2, (2, 1, 2, 1, 2, 1)) == t1
    assert mtrace(D2, (2, 1, 2, 1, 2, 1)).support() == t1


def test_is_trace_verdicts():
    """Three attachability verdicts on the lobe fixture."""
    pi = (1, 2, 3)
    ordered = is_trace(LOBE, [pi, (4, 5, 4), (2, 4, 2)])
    assert ordered.path == pi
    # comp must be defined on the returned ordering and reproduce the set
    w = comp(LOBE, ordered.path, ordered.cycles)
    assert trace(LOBE, w) == as_trace(ordered)

    # (5,5) only touches vertex 5, unreachable once (4,5,4) is absent
    with pytest.raises(NotATraceError):
        is_trace(LOBE, [pi, (5, 5), (2, 4, 2)])

    # connected to the path but attaching at two shared vertices
    with pytest.raises(NotATraceError):
        is_trace(LOBE, [pi, (2, 1, 2)])


def test_is_trace_path_count():
    with pytest.raises(NotATraceError):
        is_trace(LOBE, [(4, 5, 4)])  # no path at all
    with pytest.raises(NotATraceError):
        is_trace(LOBE, [(1, 2), (2, 3), (4, 5, 4)])  # two paths
    with pytest.raises(NotATraceError):
        is_trace(LOBE, [(2, 4, 2, 1)])  # a walk, but neither path nor cycle


def test_is_trace_single_path():
    ordered = is_trace(LOBE, [(1, 2, 3)])
    assert ordered.path == (1, 2, 3) and ordered.cycles == ()


def test_enumerate_cycles_counts():
    cycles = enumerate_cycles(D2)
    assert len(cycles) == 6
    by_len = Counter(len(c) - 1 for c in cycles)
    assert by_len == {1: 2, 2: 1, 3: 2, 4: 1}
    # one closed walk per simple cycle, from its least vertex: 14 rooted
    assert sum(by_len[n] * n for n in by_len) == 14
    assert (1, 2, 1) in cycles and (2, 1, 2) not in cycles

    k3 = complete_graph(3, self_loops=False)
    assert len(enumerate_cycles(k3)) == 5

    loop = ExplicitGraph((7,), frozenset([(7, 7)]))
    assert enumerate_cycles(loop) == ((7, 7),)


def test_enumerate_cycles_cap():
    with pytest.raises(CapExceededError):
        enumerate_cycles(D2, cap=5)


def test_enumerate_paths_order():
    paths = list(enumerate_paths(D2))
    assert len(paths) == 22
    assert paths[:4] == [(0,), (1,), (2,), (3,)]
    lengths = [len(p) for p in paths]
    assert lengths == sorted(lengths)
    assert all(len(set(p)) == len(p) for p in paths)


def test_enumerate_traces_tiny():
    a1 = build(Alphabet.from_string("a"), 1)
    got = list(enumerate_traces(a1))
    assert [(t.path, t.cycles) for t in got] == [((0,), ()), ((0,), ((0, 0),))]


def test_enumerate_traces_d2_census():
    traces = list(enumerate_traces(D2))
    assert len(traces) == 1236
    sizes = Counter(len(t.cycles) for t in traces)
    assert sizes == {0: 22, 1: 108, 2: 266, 3: 378, 4: 308, 5: 132, 6: 22}
    # exactly once up to set equality
    as_sets = {as_trace(t) for t in traces}
    assert len(as_sets) == len(traces)
    assert all(t.graph is D2 for t in traces)
    # every ordering is composable and faithful
    for t in traces[:200]:
        w = comp(D2, t.path, t.cycles)
        assert trace(D2, w) == as_trace(t)


def test_enumerate_traces_deterministic():
    first = [(t.path, t.cycles) for t in enumerate_traces(D2)]
    second = [(t.path, t.cycles) for t in enumerate_traces(D2)]
    assert first == second
    # size-major order: small certificates surface early
    sizes = [len(c) for _, c in first]
    assert sizes == sorted(sizes)


def test_enumerate_traces_caps():
    with pytest.raises(CapExceededError):
        list(enumerate_traces(D2, max_traces=5))
    # without a cap the stream ends by itself: the largest D2 trace has 6
    # cycles
    assert len(list(enumerate_traces(D2))) == 1236


def test_enumeration_contains_all_walk_traces():
    """Brute-force all walks of length <= 7 and look their traces up."""
    enumerated = {as_trace(t) for t in enumerate_traces(D2)}
    frontier = [(v,) for v in D2.vertices()]
    seen = set()
    for _ in range(7):
        nxt = []
        for w in frontier:
            for s in D2.successors(w[-1]):
                nxt.append(w + (s,))
        frontier = nxt
        for w in frontier:
            seen.add(trace(D2, w))
    assert seen <= enumerated


def test_realizability_random_multiplicities():
    """Any positive multiplicities over an enumerated trace compose back to a
    walk whose trace is the same set (the pumping construction)."""
    rng = random.Random(11)
    p = plist("ab", "ab", "ba")
    traces = list(enumerate_traces(D2))
    for t in rng.sample(traces, 80):
        reps = []
        for c in t.cycles:
            reps.extend([c] * rng.randint(1, 3))
        # keep attachment order: copies of cycles[i] stay at position i
        reps_ordered = tuple(sorted(reps, key=lambda c: t.cycles.index(c)))
        w = comp(D2, t.path, reps_ordered)
        assert trace(D2, w) == as_trace(t)


def test_occurrence_conservation_random():
    """walk_occ distributes over the multi-trace with multiplicities."""
    rng = random.Random(13)
    p = plist("ab", "ab", "ba", "a")
    for _ in range(400):
        w = [rng.randrange(4)]
        for _ in range(rng.randint(0, 30)):
            w.append(rng.choice(D2.successors(w[-1])))
        w = tuple(w)
        mt = mtrace(D2, w)
        total = list(walk_occ(D2, mt.path, p))
        for cyc, count in mt.cycles:
            for i, x in enumerate(walk_occ(D2, cyc, p)):
                total[i] += count * x
        assert tuple(total) == walk_occ(D2, w, p)
        # length conservation
        assert len(w) - 1 == (len(mt.path) - 1) + sum(
            count * (len(c) - 1) for c, count in mt.cycles)


# ---------------------------------------------------------------------------
# Reference: the walk-keyed depth-limited search that enumerate_traces and
# is_trace replaced. It restarts from the bare path for every cycle-set size
# and deduplicates whole walks; the library's state search must reproduce
# its output exactly.


def _attach(walk: Walk, cyc: Walk) -> Walk | None:
    """Splice cyc into walk at the first occurrence of its root, or None.

    Fails when the root never occurs, when the prefix up to its first
    occurrence repeats a vertex, or when the cycle meets that prefix
    anywhere besides the root.
    """
    root = cyc[0]
    try:
        i = walk.index(root)
    except ValueError:
        return None
    prefix = walk[:i + 1]
    pset = set(prefix)
    if len(pset) != len(prefix):
        return None
    for v in cyc[1:-1]:
        if v in pset:
            return None
    return prefix + cyc[1:] + walk[i + 1:]


def _order(cycs: list[Walk], walk: Walk, used: frozenset,
           visited: set) -> list[int] | None:
    # Module-level rather than a closure: a recursive inner function keeps
    # itself, and with it every walk it visited, alive until a full GC.
    if len(used) == len(cycs):
        return []
    for ci in range(len(cycs)):
        if ci in used:
            continue
        nxt = _attach(walk, cycs[ci])
        if nxt is None or nxt in visited:
            continue
        visited.add(nxt)
        rest = _order(cycs, nxt, used | {ci}, visited)
        if rest is not None:
            return [ci, *rest]
    return None


class _Level:
    """Traces on one path with exactly size cycles.

    Depth-limited search over attachment sequences. Walks are deduped
    globally (two orders reaching the same walk share all completions)
    and finished cycle sets are deduped on emission, so each trace comes
    out exactly once, tagged with the ordering that first built it. A
    class rather than a recursive closure, which would keep itself and
    every visited walk alive until a full GC.
    """

    def __init__(self, g, path: Walk, cycles: tuple[Walk, ...], size: int,
                 flag: list):
        self.g = g
        self.path = path
        self.cycles = cycles
        self.size = size
        self.flag = flag
        self.visited = {path}
        self.emitted: set[frozenset] = set()
        self.seq: list[int] = []

    def __iter__(self) -> Iterator[OrderedTrace]:
        return self.grow(self.path, frozenset())

    def grow(self, walk: Walk, used: frozenset) -> Iterator[OrderedTrace]:
        cycles, seq = self.cycles, self.seq
        if len(seq) == self.size:
            self.flag[0] = True
            if used not in self.emitted:
                self.emitted.add(used)
                yield OrderedTrace(self.path,
                                   tuple(cycles[i] for i in reversed(seq)),
                                   self.g)
            return
        for ci in range(len(cycles)):
            if ci in used:
                continue
            nxt = _attach(walk, cycles[ci])
            if nxt is None or nxt in self.visited:
                continue
            self.visited.add(nxt)
            seq.append(ci)
            yield from self.grow(nxt, used | {ci})
            seq.pop()


# the per-trace cycle cap the reference search was written with; no graph
# it is run on here reaches it
REFERENCE_MAX_CYCLES_PER_TRACE = 12


def reference_traces(g, *,
                     max_cycles_per_trace: int = REFERENCE_MAX_CYCLES_PER_TRACE,
                     max_traces: int = DEFAULT_MAX_TRACES,
                     max_cycles: int = DEFAULT_MAX_CYCLES,
                     min_cycles: int = 0) -> Iterator[OrderedTrace]:
    cycles = reference_cycles(g, cap=max_cycles)
    emitted = 0
    size = min_cycles
    while True:
        if size > max_cycles_per_trace:
            raise CapExceededError(
                f"traces with more than {max_cycles_per_trace} cycles may exist")
        alive = [False]
        for path in enumerate_paths(g):
            for tr in _Level(g, path, cycles, size, alive):
                emitted += 1
                if emitted > max_traces:
                    raise CapExceededError(f"more than {max_traces} traces")
                yield tr
        if not alive[0]:
            return
        size += 1


def _stream(traces, first):
    """(path, cycles) pairs of the first `first` traces, and the cap message
    if the stream raised one before that."""
    out = []
    try:
        for t in itertools.islice(traces, first):
            out.append((t.path, t.cycles))
    except CapExceededError as e:
        return out, str(e)
    return out, None


ABC2 = build(Alphabet.from_string("abc"), 2)
D3 = build(AB, 3)
D4 = build(AB, 4)


@pytest.mark.parametrize("g, kwargs, first", [
    (D2, {}, None),
    (D2, {"min_cycles": 1}, None),
    (D2, {"min_cycles": 3}, None),
    (D2, {"max_traces": 700}, None),
    (ABC2, {}, 20000),
    (D3, {}, 20000),
    (D4, {}, 3000),
    (ABC2, {"max_traces": 700}, None),
    (D3, {"max_traces": 700}, None),
    (D4, {"max_traces": 700}, None),
    (D3, {"max_traces": 700, "min_cycles": 1}, None),
    (D4, {"max_traces": 700, "min_cycles": 1}, None),
], ids=["d2", "d2-min1", "d2-min3", "d2-cap700", "abc2-first20000",
        "d3-first20000", "d4-first3000", "abc2-cap700", "d3-cap700",
        "d4-cap700", "d3-min1-cap700", "d4-min1-cap700"])
def test_state_search_matches_walk_search(g, kwargs, first):
    """The (prefix, used) search yields the walk search's traces, in its
    order, with its orderings and its cap messages."""
    got = _stream(enumerate_traces(g, **kwargs), first)
    want = _stream(reference_traces(g, **kwargs), first)
    assert got == want
    assert len(got[0]) > 0


def test_is_trace_matches_walk_search():
    """is_trace returns the walk search's ordering, and refuses exactly the
    collections it refuses: every D2 trace with its items shuffled, plus
    random path and cycle-set pairs, most of them invalid."""
    rng = random.Random(5)
    cycles = reference_cycles(D2)
    paths = list(enumerate_paths(D2))
    cases = [(t.path, list(t.cycles)) for t in reference_traces(D2)]
    cases += [(rng.choice(paths), rng.sample(cycles, rng.randint(1, 5)))
              for _ in range(400)]
    refused = 0
    for path, cycs in cases:
        items = [path, *cycs]
        rng.shuffle(items)
        cycs = sorted(cycs, key=lambda c: (len(c), c))
        seq = _order(cycs, path, frozenset(), {path})
        if seq is None:
            refused += 1
            with pytest.raises(NotATraceError):
                is_trace(D2, items)
        else:
            got = is_trace(D2, items)
            assert got == OrderedTrace(path,
                                       tuple(cycs[i] for i in reversed(seq)),
                                       D2)
            assert got.graph is D2
    assert refused > 100


# ---------------------------------------------------------------------------
# Reference: the rooted-cycle listing that enumerate_cycles replaced. It runs
# a depth-first search from every root, so each simple cycle of length L is
# walked L times, once per rotation, and every rotation is built before the
# cap is checked. The library lists each simple cycle once, from its least
# vertex; its simple cycles, their rotations and its cap must match this.


def reference_cycles(g, cap: int = DEFAULT_MAX_CYCLES) -> tuple[Walk, ...]:
    """Every rooted simple cycle of g (rotations counted separately),
    sorted by length then vertex tuple."""
    # Iterative depth-first search, one successor iterator per vertex on
    # the current simple path; a recursive closure would keep itself, and
    # with it every cycle found, alive until a full GC.
    succ = {v: g.successors(v) for v in g.vertices()}
    out: list[Walk] = []
    for root in sorted(g.vertices()):
        cur = [root]
        on_path = {root}
        stack = [iter(succ[root])]
        while stack:
            for nxt in stack[-1]:
                if nxt == root:
                    out.append((*cur, root))
                    if len(out) > cap:
                        raise CapExceededError(f"more than {cap} rooted cycles")
                elif nxt not in on_path:
                    cur.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(succ[nxt]))
                    break
            else:
                stack.pop()
                on_path.remove(cur.pop())
    return tuple(sorted(out, key=lambda c: (len(c), c)))


def _cycles_or_cap(enumerate_fn, g, cap):
    """The cycle tuple, or the cap message if enumerate_fn raised one."""
    try:
        return enumerate_fn(g, cap=cap)
    except CapExceededError as e:
        return str(e)


def _rotations(c: Walk) -> list[Walk]:
    """The rooted forms of the closed walk c, one per vertex."""
    return [c[i:-1] + c[:i + 1] for i in range(len(c) - 1)]


def _assert_cycles_match(g):
    """The library lists the reference's cycles rooted at their least
    vertex, whose rotations are the reference's rooted cycles; and with c
    rooted cycles, cap=c returns the list while cap=c-1 raises the same
    message on both sides."""
    want = reference_cycles(g)
    got = enumerate_cycles(g)
    assert sorted(got) == [c for c in sorted(want) if c[0] == min(c)]
    assert sorted(r for c in got for r in _rotations(c)) == sorted(want)
    c = len(want)
    assert enumerate_cycles(g, cap=c) == got
    capped = _cycles_or_cap(enumerate_cycles, g, c - 1)
    assert capped == _cycles_or_cap(reference_cycles, g, c - 1)
    if c:
        assert capped == f"more than {c - 1} rooted cycles"


def test_given_cycles_are_the_cycles_streamed():
    """enumerate_traces on the cycles enumerate_cycles lists streams what
    it streams on its own, and on a subset of them it streams exactly the
    traces of g whose cycles are rotations of that subset."""
    simple = enumerate_cycles(D2)
    every = list(enumerate_traces(D2))
    assert list(enumerate_traces(D2, cycles=simple)) == every
    short = enumerate_cycles(D2, max_length=2)
    assert sorted(short) == [(0, 0), (1, 2, 1), (3, 3)]
    rooted = {r for c in short for r in _rotations(c)}
    want = [T for T in every if set(T.cycles) <= rooted]
    assert list(enumerate_traces(D2, cycles=short)) == want
    assert 0 < sum(1 for T in want if T.cycles) < len(want) < len(every)


@pytest.mark.parametrize("g", [D2, D3, complete_graph(3)],
                         ids=["d2", "d3", "k3"])
def test_cycle_length_bound_matches_the_reference(g):
    """With max_length = L the listing is the reference's cycles of at
    most L edges, rooted at their least vertex; with c rooted cycles among
    them, cap = c returns the listing and cap = c - 1 fires with the
    reference's message. Every L from 1 to the vertex count is tried."""
    every = reference_cycles(g)
    for bound in range(1, len(g.vertices()) + 1):
        want = [c for c in every if len(c) - 1 <= bound]
        got = enumerate_cycles(g, max_length=bound)
        assert sorted(got) == [c for c in sorted(want) if c[0] == min(c)]
        c = len(want)
        assert enumerate_cycles(g, cap=c, max_length=bound) == got
        with pytest.raises(CapExceededError) as e:
            enumerate_cycles(g, cap=c - 1, max_length=bound)
        assert str(e.value) == f"more than {c - 1} rooted cycles"
    assert got == enumerate_cycles(g)
    with pytest.raises(ValueError):
        enumerate_cycles(g, max_length=0)


CYCLE_GRAPHS = {
    **{f"ab{n}": build(AB, n) for n in range(1, 5)},
    **{f"abc{n}": build(Alphabet.from_string("abc"), n) for n in (1, 2)},
    "abcd1": build(Alphabet.from_string("abcd"), 1),
    **{f"k{n}{'' if loops else '-noloops'}": complete_graph(n, self_loops=loops)
       for n in (3, 4) for loops in (True, False)},
    "lobe": LOBE,
    "loop": ExplicitGraph((7,), frozenset([(7, 7)])),
    "acyclic": ExplicitGraph((1, 2, 3), frozenset([(1, 2), (2, 3), (1, 3)])),
}


@pytest.mark.parametrize("g", CYCLE_GRAPHS.values(), ids=CYCLE_GRAPHS.keys())
def test_least_vertex_cycles_match_every_root_search(g):
    _assert_cycles_match(g)


@st.composite
def _digraphs(draw):
    n = draw(st.integers(1, 7))
    vs = tuple(range(n))
    edges = draw(st.frozensets(st.tuples(st.sampled_from(vs),
                                         st.sampled_from(vs))))
    return ExplicitGraph(vs, edges)


@settings(max_examples=150, deadline=None)
@given(_digraphs())
def test_least_vertex_cycles_match_on_random_digraphs(g):
    _assert_cycles_match(g)
