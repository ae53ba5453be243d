"""Traces: the path/cycle content of a walk, validity testing, enumeration.

The trace of a walk records its decomposition path and the set of rooted
cycles peeled off it. A candidate collection is a valid trace exactly
when the cycles can be attached one at a time, each at the first
occurrence of its root on the walk composed so far, subject to two
conditions: the prefix up to that occurrence is duplicate-free, and the
cycle touches that prefix in its root only. Walks realising a trace
exist for every choice of positive multiplicities, which is what the
decision procedures pump on.

Both the validity test and the enumeration search over states (P, used)
rather than over whole walks: P is the longest duplicate-free prefix of
the walk composed so far and used its set of attached cycles. The state
decides every further attachment (see _grow), so the search keeps one
level of states per cycle-set size and grows the next level from it,
instead of re-attaching every shallower walk for each size.

enumerate_cycles lists each simple cycle of the graph once, closed at its
least vertex. The searches draw on rooted cycles instead, in the order of
_rooted_order: enumerate_traces builds them from that list, and is_trace
takes them from its caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .decomp import Walk, check_walk, is_cycle, is_path
from .errors import CapExceededError, NotATraceError
from .words import word_to_str

DEFAULT_MAX_TRACES = 1_000_000
DEFAULT_MAX_CYCLES = 100_000


@dataclass(frozen=True)
class OrderedTrace:
    """A trace plus an attachment ordering usable by comp.

    comp processes the tuple back to front, so cycles[-1] is the one that
    attaches directly to the path; graph is the graph its walks live in.
    """

    path: Walk
    cycles: tuple[Walk, ...]
    graph: object = field(compare=False, repr=False)

    def to_json_dict(self) -> dict:
        """Path and cycles as lists of vertex words."""
        def word(v):
            return word_to_str(self.graph.vertex_word(v))

        return {"path": [word(v) for v in self.path],
                "cycles": [[word(v) for v in cyc] for cyc in self.cycles]}


# A search state: (P, used, seq). P is the longest duplicate-free prefix
# of the composed walk, used the bit set of attached cycle indices and seq
# those indices in attachment order.
_State = tuple[Walk, int, tuple[int, ...]]


def _grow(states: Iterable[_State],
          cycles: tuple[Walk, ...]) -> Iterator[_State]:
    """The states one attachment deeper, each once, in first-reached order.

    Rule. Attaching cycle c with root r to a walk W succeeds iff r occurs
    in P = P(W), at index i say, and c[1:-1] avoids P[:i+1]. The first
    occurrence of r in W lies inside the duplicate-free prefix exactly
    when r is in P, and then the prefix up to it is P[:i+1]. The new walk
    is P[:i+1] + c[1:] + W[i+1:]: its first i+1 vertices and the interior
    of c are pairwise distinct, and r recurs right after them, so its
    longest duplicate-free prefix is P[:i+1] + c[1:-1]. Both the test and
    the new state read only (P, used), so two walks with equal (P, used)
    have the same continuations, state by state.

    Order. Call a sequence of cycle indices least for a state when no
    lexicographically smaller one reaches it. Every prefix of a least
    sequence is least for the state it reaches: if s reaches X and a
    smaller s' does too, s' + [c] reaches the same state as s + [c] and
    is smaller. So when states lists every state of a level once, by its
    least sequence and in the order of those sequences, the extensions
    tried here (states in order, cycles by ascending index) come in
    lexicographic order, and the first one to reach a state carries its
    least sequence: the output lists the next level the same way. Each
    cycle set is therefore first met with its least attachment sequence,
    in the order of those sequences, which is exactly what a depth-first
    search over sequences that deduplicates whole walks emits, since a
    walk fixes its state (P by definition, used as the cycles dec peels
    off it).
    """
    seen = set()
    for prefix, used, seq in states:
        pos = {v: i for i, v in enumerate(prefix)}
        for ci, cyc in enumerate(cycles):
            bit = 1 << ci
            if used & bit:
                continue
            i = pos.get(cyc[0])
            if i is None:
                continue
            inner = cyc[1:-1]
            for v in inner:
                j = pos.get(v)
                if j is not None and j <= i:
                    break
            else:
                key = (prefix[:i + 1] + inner, used | bit)
                if key not in seen:
                    seen.add(key)
                    yield key[0], key[1], seq + (ci,)


def _levels(path: Walk, depth: int,
            cycles: tuple[Walk, ...]) -> Iterable[_State]:
    """The states on path with depth cycles attached, produced lazily."""
    level: Iterable[_State] = [(path, 0, ())]
    for _ in range(depth):
        level = _grow(level, cycles)
    return level


def _ordered(g, path: Walk, seq: tuple[int, ...],
             cycles: tuple[Walk, ...]) -> OrderedTrace:
    # comp splices back to front, so the first cycle attached goes last
    return OrderedTrace(path, tuple(cycles[i] for i in reversed(seq)), g)


def is_trace(g, items) -> OrderedTrace:
    """Order the collection into an attachable sequence or raise NotATraceError."""
    walks = []
    for w in items:
        w = tuple(w)
        if w not in walks:
            walks.append(w)
    paths = []
    cycs = []
    for w in walks:
        check_walk(g, w)
        if is_path(w):
            paths.append(w)
        elif is_cycle(w):
            cycs.append(w)
        else:
            raise NotATraceError(f"{w} is neither a simple path nor a rooted cycle")
    if not paths:
        raise NotATraceError("no path in the collection")
    if len(paths) > 1:
        raise NotATraceError(f"more than one path in the collection: {paths}")
    path = paths[0]
    cycles = _rooted_order(cycs)
    # at full depth every state has used all the cycles
    for _, _, seq in _levels(path, len(cycles), cycles):
        return _ordered(g, path, seq, cycles)
    raise NotATraceError(
        f"no attachment ordering exists for cycles {list(cycles)} on path {path}")


def _rooted_order(cycles: Iterable[Walk]) -> tuple[Walk, ...]:
    """The cycles sorted by length, then vertex tuple: the order in which
    both searches index them. Two stable sorts give that order without a
    key tuple per cycle."""
    return tuple(sorted(sorted(cycles), key=len))


def enumerate_cycles(g, cap: int = DEFAULT_MAX_CYCLES) -> tuple[Walk, ...]:
    """Every simple cycle of g once, as the closed walk from its least
    vertex, in the order found: by least vertex, then depth first. Raises
    CapExceededError as soon as g has more than cap rooted cycles.

    Soundness: every simple cycle has exactly one least vertex. The
    depth-first search from r that steps only to vertices above r finds
    exactly the simple cycles whose least vertex is r, each once, as the
    vertex sequence that starts at r. A simple cycle of length L has L
    distinct vertices and so L rooted forms, one per vertex, and no two
    simple cycles share one. Adding L per cycle found therefore counts
    the rooted cycles of g exactly, and the cap fires at the first cycle
    that takes the count past cap.
    """
    # Iterative depth-first search, one successor iterator per vertex on
    # the current simple path; a recursive closure would keep itself, and
    # with it every cycle found, alive until a full GC.
    succ = {v: g.successors(v) for v in g.vertices()}
    found: list[Walk] = []
    count = 0
    for root in sorted(g.vertices()):
        cur = [root]
        on_path = {root}
        stack = [iter(succ[root])]
        while stack:
            for nxt in stack[-1]:
                if nxt == root:
                    found.append((*cur, root))
                    count += len(cur)
                    if count > cap:
                        raise CapExceededError(f"more than {cap} rooted cycles")
                elif nxt > root and nxt not in on_path:
                    cur.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(succ[nxt]))
                    break
            else:
                stack.pop()
                on_path.remove(cur.pop())
    return tuple(found)


def enumerate_paths(g) -> Iterator[Walk]:
    """All simple paths of g, shortest first, lexicographic within a length."""
    level: list[Walk] = sorted((v,) for v in g.vertices())
    while level:
        yield from level
        grown = []
        for p in level:
            pset = set(p)
            for s in g.successors(p[-1]):
                if s not in pset:
                    grown.append(p + (s,))
        level = sorted(grown)


def enumerate_traces(g, *,
                     max_traces: int = DEFAULT_MAX_TRACES,
                     min_cycles: int = 0,
                     prune: Callable[[tuple[Walk, ...]], bool] | None = None
                     ) -> Iterator[OrderedTrace]:
    """Every valid trace of g exactly once, as a composable OrderedTrace.

    Deterministic order: cycle-set size ascending, then path (shortest
    first, lexicographic), then the least attachment sequence of each
    cycle set, which is also the ordering it carries. Small certificates
    therefore surface early. Raises CapExceededError when a limit
    truncates the enumeration, so exhaustion claims stay honest; the
    cycle cap is DEFAULT_MAX_CYCLES.

    Each path keeps the states (see _grow) of the last size, and the next
    size grows from them, yielding each trace as its cycle set is first
    reached. The first size grows every path from scratch as the path is
    drawn, so an early exit never pays for paths it does not reach. A
    size no path reaches ends the stream, and one always exists, since a
    trace attaches each cycle at most once.

    Traces with fewer than min_cycles cycles are skipped. prune, if
    given, is called once with the simple cycles of g, as enumerate_cycles
    lists them (so a cycle cap still fires here), before any trace; when
    it returns True the caller has ruled out every trace, and the stream
    ends without yielding one.

    Otherwise the rooted cycles are built here, every rotation of every
    simple cycle. A rooted simple cycle is a simple cycle read from one of
    its vertices, so these are all of them, each once, and the cycle cap
    bounds their number.
    """
    simple = enumerate_cycles(g)
    if prune is not None and prune(simple):
        return
    cycles = _rooted_order((*c[i:-1], *c[:i + 1])
                           for c in simple for i in range(len(c) - 1))
    emitted = 0
    grown = ((path, _levels(path, min_cycles, cycles))
             for path in enumerate_paths(g))
    while True:
        kept: list[tuple[Walk, list[_State]]] = []
        for path, states in grown:
            level = []
            cycle_sets = set()
            for state in states:
                level.append(state)
                if state[1] in cycle_sets:
                    continue
                cycle_sets.add(state[1])
                emitted += 1
                if emitted > max_traces:
                    raise CapExceededError(f"more than {max_traces} traces")
                yield _ordered(g, path, state[2], cycles)
            if level:
                kept.append((path, level))
        if not kept:
            return
        grown = ((path, _grow(level, cycles)) for path, level in kept)
