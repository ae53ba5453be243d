"""Traces: the path/cycle content of a walk, validity testing, enumeration.

The multi-trace of a walk records its decomposition path (multiplicity 1)
and each peeled rooted cycle with its multiplicity; the trace forgets the
multiplicities. A candidate collection is a valid trace exactly when the
cycles can be attached one at a time, each at the first occurrence of its
root on the walk composed so far, subject to two conditions: the prefix up
to that occurrence is duplicate-free, and the cycle touches that prefix in
its root only. Walks realising a trace exist for every choice of positive
multiplicities, which is what the decision procedures pump on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

from .decomp import Walk, check_walk, dec, is_cycle, is_path
from .errors import CapExceededError, NotATraceError

DEFAULT_MAX_CYCLES_PER_TRACE = 12
DEFAULT_MAX_TRACES = 1_000_000
DEFAULT_MAX_CYCLES = 100_000


@dataclass(frozen=True)
class MultiTrace:
    """Decomposition content with multiplicities; cycles sorted canonically."""

    path: Walk
    cycles: tuple[tuple[Walk, int], ...]

    def multiplicity(self, item: Walk) -> int:
        if item == self.path:
            return 1
        for cyc, count in self.cycles:
            if cyc == item:
                return count
        return 0

    def support(self) -> "Trace":
        return Trace(self.path, frozenset(cyc for cyc, _ in self.cycles))


@dataclass(frozen=True)
class Trace:
    path: Walk
    cycles: frozenset[Walk]


@dataclass(frozen=True)
class OrderedTrace:
    """A trace plus an attachment ordering usable by comp.

    comp processes the tuple back to front, so cycles[-1] is the one that
    attaches directly to the path.
    """

    path: Walk
    cycles: tuple[Walk, ...]

    def as_trace(self) -> Trace:
        return Trace(self.path, frozenset(self.cycles))


def mtrace(g, walk: Walk) -> MultiTrace:
    d = dec(g, walk)
    counts = Counter(d.cycles)
    ordered = tuple(sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return MultiTrace(d.path, ordered)


def trace(g, walk: Walk) -> Trace:
    d = dec(g, walk)
    return Trace(d.path, frozenset(d.cycles))


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
    cycs.sort(key=lambda c: (len(c), c))

    seq = _order(cycs, path, frozenset(), {path})
    if seq is None:
        raise NotATraceError(
            f"no attachment ordering exists for cycles {cycs} on path {path}")
    return OrderedTrace(path, tuple(cycs[i] for i in reversed(seq)))


def enumerate_cycles(g, cap: int = DEFAULT_MAX_CYCLES) -> tuple[Walk, ...]:
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


class _Level:
    """Traces on one path with exactly size cycles.

    Depth-limited search over attachment sequences. Walks are deduped
    globally (two orders reaching the same walk share all completions)
    and finished cycle sets are deduped on emission, so each trace comes
    out exactly once, tagged with the ordering that first built it. A
    class rather than a recursive closure, which would keep itself and
    every visited walk alive until a full GC.
    """

    def __init__(self, path: Walk, cycles: tuple[Walk, ...], size: int,
                 flag: list):
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
                                   tuple(cycles[i] for i in reversed(seq)))
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


def enumerate_traces(g, *,
                     max_cycles_per_trace: int = DEFAULT_MAX_CYCLES_PER_TRACE,
                     max_traces: int = DEFAULT_MAX_TRACES,
                     max_cycles: int = DEFAULT_MAX_CYCLES,
                     min_cycles: int = 0,
                     prune: Callable[[tuple[Walk, ...]], bool] | None = None
                     ) -> Iterator[OrderedTrace]:
    """Every valid trace of g exactly once, as a composable OrderedTrace.

    Deterministic order: cycle-set size ascending, then path (shortest
    first, lexicographic), then discovery order of the attachment search.
    Small certificates therefore surface early. Raises CapExceededError
    when a limit truncates the enumeration, so exhaustion claims stay
    honest.

    Traces with fewer than min_cycles cycles are skipped. prune, if
    given, is called once with every rooted cycle of g after they are
    enumerated (so a cycle cap still fires here) and before any trace;
    when it returns True the caller has ruled out every trace, and the
    stream ends without yielding one.
    """
    cycles = enumerate_cycles(g, cap=max_cycles)
    if prune is not None and prune(cycles):
        return
    emitted = 0
    size = min_cycles
    while True:
        if size > max_cycles_per_trace:
            raise CapExceededError(
                f"traces with more than {max_cycles_per_trace} cycles may exist")
        alive = [False]
        for path in enumerate_paths(g):
            for tr in _Level(path, cycles, size, alive):
                emitted += 1
                if emitted > max_traces:
                    raise CapExceededError(f"more than {max_traces} traces")
                yield tr
        if not alive[0]:
            return
        size += 1
