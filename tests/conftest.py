"""Shared helpers for the test suite: parameter lists from plain strings,
explicit fixture graphs, a plain-row ILP front end, multi-traces and the
brute-force walk-trace search."""

from collections import Counter
from dataclasses import dataclass

from wordmix import Alphabet, ParamList, word_from_str
from wordmix.decomp import Vertex, Walk, dec
from wordmix.errors import BudgetExceededError
from wordmix.linarith import (DEFAULT_NODE_BUDGET, Feasibility, LinearSystem,
                              solve_system)
from wordmix.oracle import DEFAULT_WORD_BUDGET
from wordmix.traces import Trace, trace


def plist(alphabet: str, *words: str) -> ParamList:
    """Build a ParamList from plain strings, e.g. plist("ab", "ab", "ba")."""
    return ParamList(Alphabet.from_string(alphabet), tuple(word_from_str(w) for w in words))


@dataclass(frozen=True)
class ExplicitGraph:
    """Fixture graph given by an explicit vertex tuple and edge set."""

    vertex_tuple: tuple[Vertex, ...]
    edges: frozenset[tuple[Vertex, Vertex]]

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_tuple)

    def vertices(self) -> tuple[Vertex, ...]:
        return self.vertex_tuple

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return (u, v) in self.edges

    def successors(self, v: Vertex) -> tuple[Vertex, ...]:
        return tuple(w for w in self.vertex_tuple if (v, w) in self.edges)


def complete_graph(n: int, self_loops: bool = True, first: int = 1) -> ExplicitGraph:
    """Complete digraph on vertices first..first+n-1."""
    vs = tuple(range(first, first + n))
    edges = frozenset((u, v) for u in vs for v in vs if self_loops or u != v)
    return ExplicitGraph(vs, edges)


def ilp_feasible(coeffs, rhs, lower, strict=None, *,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> Feasibility:
    """Decide ∃ integer x >= lower with row.x = rhs (or > rhs on strict rows).

    Strict rows shift to >= rhs+1 and gain a slack variable; after that the
    core search runs on equalities only.
    """
    coeffs = tuple(tuple(row) for row in coeffs)
    if strict is None:
        strict = [False] * len(coeffs)
    rels = tuple("ge" if s else "eq" for s in strict)
    shifted = tuple(b + 1 if s else b for b, s in zip(rhs, strict))
    system = LinearSystem(coeffs, rels, shifted, tuple(lower))
    return solve_system(system, node_budget=node_budget)


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

    def support(self) -> Trace:
        return Trace(self.path, frozenset(cyc for cyc, _ in self.cycles))


def mtrace(g, walk: Walk) -> MultiTrace:
    d = dec(g, walk)
    counts = Counter(d.cycles)
    ordered = tuple(sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return MultiTrace(d.path, ordered)


def enumerate_walk_traces(g, starts, maxlen: int, *,
                          budget: int = DEFAULT_WORD_BUDGET) -> set[Trace]:
    """{trace(w) : w a walk from a start vertex with at most maxlen edges}."""
    seen = 0
    frontier = [(v,) for v in starts]
    out = set()
    for walk in frontier:
        out.add(trace(g, walk))
    for _ in range(maxlen):
        grown = []
        for walk in frontier:
            for s in g.successors(walk[-1]):
                seen += 1
                if seen > budget:
                    raise BudgetExceededError(
                        f"walk enumeration exceeded the budget {budget}")
                longer = walk + (s,)
                out.add(trace(g, longer))
                grown.append(longer)
        frontier = grown
    return out
