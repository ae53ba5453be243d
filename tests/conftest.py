"""Shared helpers for the test suite: parameter lists from plain strings,
explicit fixture graphs, a plain-row ILP front end, the Fraction simplex
reference, small systems, their relaxation over z >= 0 and the key the
decisions solve them by, unordered traces, multi-traces and the
brute-force walk-trace search."""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from wordmix import Alphabet, ParamList, word_from_str
from wordmix.decide import _key
from wordmix.decomp import Vertex, Walk, dec
from wordmix.errors import BudgetExceededError
from wordmix.linarith import (DEFAULT_NODE_BUDGET, Feasibility, LinearSystem,
                              solve_system)
from wordmix.oracle import DEFAULT_WORD_BUDGET
from wordmix.traces import OrderedTrace


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


def reference_phase1(rows, rhs):
    """Feasible point of {rows . x = rhs, x >= 0} over the rationals.

    The library's former Fraction tableau, kept as the reference for the
    integer one in linarith._phase1: the same Bland pivots, but with the
    objective row rebuilt from the basis at every pivot.

    Returns a list of Fractions (one per column) or None. Bland's rule,
    so termination is unconditional.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    tab = [[Fraction(a) for a in row] for row in rows]
    d = [Fraction(v) for v in rhs]
    for r in range(m):
        if d[r] < 0:
            tab[r] = [-a for a in tab[r]]
            d[r] = -d[r]
    # append one artificial per row
    for r in range(m):
        tab[r].extend(Fraction(1) if i == r else Fraction(0) for i in range(m))
    total = n + m
    basis = [n + r for r in range(m)]

    def cost(j):
        return 1 if j >= n else 0

    while True:
        # reduced costs for minimizing the artificial sum, recomputed
        # from the basis each round (cheap at these sizes, cannot drift)
        art_rows = [r for r in range(m) if basis[r] >= n]
        zrow = [cost(j) - sum(tab[r][j] for r in art_rows)
                for j in range(total)]
        enter = next((j for j in range(total) if zrow[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = d[r] / a
                if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            # the artificial objective is bounded below by 0, so an
            # unbounded improving direction cannot occur
            raise AssertionError("phase-1 objective unbounded")
        piv = tab[leave][enter]
        tab[leave] = [a / piv for a in tab[leave]]
        d[leave] /= piv
        for r in range(m):
            if r != leave and tab[r][enter]:
                f = tab[r][enter]
                tab[r] = [a - f * p for a, p in zip(tab[r], tab[leave])]
                d[r] -= f * d[leave]
        basis[leave] = enter

    if sum(d[r] for r in range(m) if basis[r] >= n) != 0:
        return None
    point = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            point[basis[r]] = d[r]
    return point


@st.composite
def small_systems(draw) -> LinearSystem:
    """LinearSystems of 1-3 rows over 1-4 columns, with 'ge' rows, lower
    bounds 0-2, rows scaled by 2 or 3 with a right-hand side that keeps
    them divisible over z = x - lower, and possibly an 'eq' zero row with
    right-hand side 0, which solve_system drops."""
    n = draw(st.integers(1, 4))
    lower = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    coeffs, rels, rhs = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from((1, 1, 2, 3)))
        row = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        coeffs.append(tuple(g * a for a in row))
        rels.append(draw(st.sampled_from(("eq", "ge"))))
        rhs.append(g * draw(st.integers(-4, 4)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(coeffs)))
        coeffs.insert(at, (0,) * n)
        rels.insert(at, "eq")
        rhs.insert(at, 0)
    return LinearSystem(tuple(coeffs), tuple(rels), tuple(rhs), lower)


def relaxation(system: LinearSystem):
    """(rows, rhs) of the system over z = x - lower >= 0, a slack column
    -1 for each 'ge' row, rows left undivided: its rational relaxation
    for reference_phase1."""
    slacks = [r for r, rel in enumerate(system.rels) if rel == "ge"]
    rows = [list(row) + [-int(r == s) for s in slacks]
            for r, row in enumerate(system.coeffs)]
    rhs = [b - sum(a * lo for a, lo in zip(row, system.lower))
           for row, b in zip(system.coeffs, system.rhs)]
    return rows, rhs


def system_columns(system: LinearSystem) -> list[tuple[int, ...]]:
    """The columns of system; empty tuples when it has no rows."""
    return (list(zip(*system.coeffs)) if system.coeffs
            else [()] * system.n_vars)


def system_key(system: LinearSystem) -> tuple:
    """The key (decide._key) of system over z = x - lower: its relations,
    b - A.lower and its columns. The decisions read their keys off the
    OccTable instead; this one, read off a built system, is what those
    must equal."""
    rhs = tuple(b - sum(a * lo for a, lo in zip(row, system.lower))
                for row, b in zip(system.coeffs, system.rhs))
    return _key(system.rels, rhs, system_columns(system))


def has_indivisible_row(system: LinearSystem) -> bool:
    """Whether some row over z >= 0 has a nonzero gcd that does not
    divide its right-hand side, which refutes the system over the
    integers alone."""
    return any(math.gcd(*row) and b % math.gcd(*row)
               for row, b in zip(*relaxation(system)))


@dataclass(frozen=True)
class Trace:
    """The trace of a walk: its decomposition path and set of cycles."""

    path: Walk
    cycles: frozenset[Walk]


def trace(g, walk: Walk) -> Trace:
    d = dec(g, walk)
    return Trace(d.path, frozenset(d.cycles))


def as_trace(t: OrderedTrace) -> Trace:
    """An OrderedTrace without its attachment order."""
    return Trace(t.path, frozenset(t.cycles))


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
