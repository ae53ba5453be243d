"""Top-level decisions: is M(w1,...,wk) infinite, and do two lists agree.

Both procedures stream the traces of the de Bruijn graph whose dimension
is the longest parameter word, through one loop, _stream. Finiteness
early-exits on the first trace whose balance and pumping systems are both
feasible; equivalence must exhaust the traces, refuting every negation
branch, before it may answer Equal. Caps, solver budgets and two fixed
guards, the graph build's (debruijn.DEFAULT_MAX_VERTICES, 4096 vertices)
and the cycle enumeration's (traces.DEFAULT_MAX_CYCLES, 100000 rooted
cycles), surface as an Unknown verdict, never as a silently weakened
answer.

Each decision builds its graph once, plus one OccTable per parameter
list, defines its per-trace check over them, hands both to _stream and
maps what comes back to its verdict. Four rules apply, each argued where
it is implemented. Finiteness: (a) one pumping LP over all cycles can
refute every trace at once (_TraceChecker.refutes_all), and (b)
cycle-free traces are not streamed (decide_finiteness). Both decisions:
(c) every solve goes through one per-decision memo, _Solves, on keys
that forget the order of the cycles. Equivalence: (d) a trace's branches
holding one list's balance system are built and solved only when that
system is feasible (_Separator).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .debruijn import (DEFAULT_MAX_VERTICES, DeBruijnGraph, OccTable, build,
                       word_of_walk)
from .decomp import comp
from .errors import (BudgetExceededError, CapExceededError,
                     DimensionCapError, WitnessError)
from .linarith import (DEFAULT_NODE_BUDGET, LinearSystem,
                       build_balance_system, build_psi_branches,
                       build_pumping_system, homogeneous_nontrivial,
                       is_pumping_witness, pumping_rows, solve_system)
from .traces import DEFAULT_MAX_TRACES, OrderedTrace, enumerate_traces
from .words import ParamList, Word, is_member, word_to_str


@dataclass(frozen=True)
class Caps:
    """The two resource knobs of a decision. Two fixed guards stay
    outside them: at most 4096 graph vertices and 100000 rooted cycles."""

    max_traces: int = DEFAULT_MAX_TRACES
    node_budget: int = DEFAULT_NODE_BUDGET


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class FinitenessCertificate:
    """A trace with multiplicities proving the language infinite.

    x solves the balance system (all occurrence components equal, every
    cycle used at least once); y the pumping system (a nonzero repeatable
    increment that keeps the components equal).
    """

    trace: OrderedTrace
    x: tuple[int, ...]
    y: tuple[int, ...]


@dataclass(frozen=True)
class FinitenessVerdict:
    verdict: str  # "infinite" | "finite" | "unknown"
    certificate: FinitenessCertificate | None
    traces_checked: int  # traces with at least one cycle that were checked
    cap: str | None = None
    pruned: bool = False  # finite by rule (a), before any trace

    @property
    def reason(self) -> str:
        """Why a finite verdict holds, in words."""
        if self.pruned:
            return "no cycle combination pumps"
        return "all traces exhausted"

    def to_json_dict(self, elapsed_ms: float) -> dict:
        cert = None
        if self.certificate is not None:
            c = self.certificate
            cert = {"trace": c.trace.to_json_dict(), "x": list(c.x),
                    "y": list(c.y)}
        elif self.cap is not None:
            cert = {"cap": self.cap}
        return {
            "verdict": self.verdict,
            "certificate": cert,
            "stats": {"traces_checked": self.traces_checked,
                      "pruned": self.pruned,
                      "elapsed_ms": elapsed_ms},
        }


@dataclass(frozen=True)
class EquivalenceVerdict:
    verdict: str  # "equal" | "not_equal" | "unknown"
    witness: Word | None
    member_of: int | None  # 1 or 2: which list's language contains it
    traces_checked: int
    cap: str | None = None

    def to_json_dict(self, elapsed_ms: float) -> dict:
        cert = None
        if self.witness is not None:
            cert = {"witness_word": word_to_str(self.witness),
                    "member_of": self.member_of}
        elif self.cap is not None:
            cert = {"cap": self.cap}
        return {
            "verdict": self.verdict,
            "certificate": cert,
            "stats": {"traces_checked": self.traces_checked,
                      "elapsed_ms": elapsed_ms},
        }


def _columns(rows, m: int) -> list[tuple[int, ...]]:
    """The m columns of rows; empty tuples when there are no rows (k = 1)."""
    return list(zip(*rows)) if rows else [()] * m


def _system_key(system: LinearSystem) -> tuple:
    """A key that settles whether system has an integer solution: the
    system over z = x - lower >= 0, that is its relations, b - A.lower,
    and its sorted distinct nonzero columns.

    Over z >= 0 every lower bound is 0, so permuting the columns permutes
    the solutions, and the columns are sorted. r >= 1 copies of a column c
    enter every row as s*c, where s is the sum of their z; s takes every
    value >= 0, as one copy's z does, so the copies merge into one. A
    column that is zero in every row meets the rows whatever its z, so it
    is dropped. Systems with equal keys are therefore feasible together or
    not at all, and the key itself reads as such a system over z >= 0.
    """
    rhs = tuple(b - sum(a * lo for a, lo in zip(row, system.lower))
                for row, b in zip(system.coeffs, system.rhs))
    cols = _columns(system.coeffs, system.n_vars)
    return system.rels, rhs, tuple(sorted({c for c in cols if any(c)}))


class _Solves:
    """Every solve of one decision, memoised: rule (c).

    pumping(rows, m) asks for a nonzero y >= 0 with rows . y = 0, for
    each trace of a finiteness decision and for rule (a). feasible(system)
    asks whether some x >= 1 solves system, for equivalence's held
    balance systems. witness(system) asks for that x, for finiteness's
    balance systems and equivalence's branches.

    The pumping question depends only on the set of distinct columns of
    rows: a solution over the distinct columns is one over rows once each
    column's weight goes to its first copy and repeats get 0, and summing
    a solution over equal columns gives one over the distinct set. Each
    pumping solve is cached on that set with its witness, which is mapped
    to the caller's column order and re-checked against the caller's own
    rows before use: pump-feasible traces whose balance fails come back
    again and again.

    The other two questions depend only on _system_key, the system over
    z = x - lower >= 0 with the order, the repeats and the zeros of its
    columns forgotten; they share one memo of outcomes. feasible answers
    from it whenever it can: a feasible held system does not end the
    decision and comes back on many traces. witness answers a cached
    refutation at once and otherwise solves in full, since its caller
    needs the solution, and a feasible system ends the decision that asks
    for one.
    A solve that runs out of budget is not cached, so a later query with
    the same key tries again, as it would without the memo. Every memo
    holds one entry per distinct system met and lives as long as the
    decision.
    """

    def __init__(self, node_budget: int):
        self.node_budget = node_budget
        # distinct pumping columns -> weight per column, or None
        self._pumps: dict[tuple, dict | None] = {}
        # _system_key -> whether the system has a solution x >= 1
        self._systems: dict[tuple, bool] = {}

    def pumping(self, rows, m: int) -> tuple[int, ...] | None:
        """A nonzero y >= 0 with rows . y = 0 over m columns, or None."""
        cols = _columns(rows, m)
        key = tuple(sorted(set(cols)))
        if key not in self._pumps:
            result = homogeneous_nontrivial(tuple(zip(*key)), len(key))
            self._pumps[key] = (dict(zip(key, result.witness))
                                if result.feasible else None)
        weights = self._pumps[key]
        if weights is None:
            return None
        seen = set()
        y = []
        for c in cols:
            y.append(0 if c in seen else weights[c])
            seen.add(c)
        if not is_pumping_witness(rows, y):
            raise WitnessError("memoised pumping witness failed its re-check")
        return tuple(y)

    def feasible(self, system: LinearSystem) -> bool:
        key = _system_key(system)
        if key not in self._systems:
            self._systems[key] = solve_system(
                system, node_budget=self.node_budget).feasible
        return self._systems[key]

    def witness(self, system: LinearSystem) -> tuple[int, ...] | None:
        key = _system_key(system)
        if self._systems.get(key) is False:
            return None
        result = solve_system(system, node_budget=self.node_budget)
        self._systems[key] = result.feasible
        return result.witness


class _TraceChecker:
    """The finiteness check of one decision: one OccTable, one _Solves."""

    def __init__(self, g: DeBruijnGraph, p: ParamList, node_budget: int):
        self.p = p
        self.table = OccTable(g, p)
        self.solves = _Solves(node_budget)
        self.pruned = False

    def refutes_all(self, cycles) -> bool:
        """Rule (a), the all-cycles pumping prune: True when no trace can
        pump, and so none can carry a certificate.

        cycles holds every simple cycle of g once. Soundness: each cycle of
        a trace is one of them, whichever vertex it starts from, and a
        cycle's column sums the suffix indicators over its vertex set, so
        every column of a trace's pumping matrix is the column of one of
        cycles. A nonzero y >= 0 in the kernel of the
        trace's matrix, summed onto those columns, is one of the LP over
        the distinct columns of cycles. So if that LP is infeasible, every
        trace fails its pumping test and M(p) is finite, whatever the trace
        caps would have cut off.
        """
        cols = {self.table.column(c) for c in cycles}
        rows = pumping_rows(cols, self.p.k)
        self.pruned = self.solves.pumping(rows, len(cols)) is None
        return self.pruned

    def check(self, T: OrderedTrace) -> FinitenessCertificate | None:
        """Certificate for T if it satisfies both conditions, else None.

        A trace without cycles has nothing to pump and gets None. The
        pumping test is a rational feasibility question and runs first;
        the balance test is the integer one and only runs when pumping
        holds.
        """
        if not T.cycles:
            return None
        y = self.solves.pumping(
            build_pumping_system(T, self.p, table=self.table), len(T.cycles))
        if y is None:
            return None
        x = self.solves.witness(
            build_balance_system(T, self.p, table=self.table))
        if x is None:
            return None
        return FinitenessCertificate(T, x, y)


OnTrace = Callable[[OrderedTrace], None]


def _stream(traces: Iterator[OrderedTrace],
            check: Callable[[OrderedTrace], object | None],
            on_trace: OnTrace | None
            ) -> tuple[object | None, int, str | None]:
    """The one loop over traces: (result, traces_checked, cap).

    Each trace is counted, shown to on_trace if given, then checked; the
    first result that is not None ends the stream and is returned. A
    check that runs out of solver budget leaves its trace undecided: the
    hunt for a result goes on, but cap then names that budget, so the
    caller cannot claim an exhaustive negative answer. A CapExceededError
    from the stream cuts it short and becomes cap. Only the stream raises
    CapExceededError; the checks raise BudgetExceededError at most.
    """
    checked = 0
    cap = None
    try:
        for T in traces:
            checked += 1
            if on_trace is not None:
                on_trace(T)
            try:
                result = check(T)
            except BudgetExceededError as e:
                cap = str(e)
                continue
            if result is not None:
                return result, checked, None
    except CapExceededError as e:
        return None, checked, str(e)
    return None, checked, cap


def decide_finiteness(p: ParamList, caps: Caps = DEFAULT_CAPS, *,
                      on_trace: OnTrace | None = None) -> FinitenessVerdict:
    """Infinite with a certificate; Finite when rule (a) refutes every
    trace at once or the stream is exhausted; or Unknown when a cap or
    budget interfered.

    Rule (b): the stream starts at cycle-set size 1. A cycle-free trace
    realises a single word, so _TraceChecker.check refuses it, and
    skipping it loses no certificate. traces_checked therefore counts
    traces with cycles only. on_trace, if given, is called with every
    trace checked, in order, before it is checked.
    """
    try:
        g = build(p.alphabet, p.max_len)
    except DimensionCapError as e:
        return FinitenessVerdict("unknown", None, 0, cap=str(e))
    checker = _TraceChecker(g, p, caps.node_budget)
    traces = enumerate_traces(g, max_traces=caps.max_traces, min_cycles=1,
                              prune=checker.refutes_all)
    cert, checked, cap = _stream(traces, checker.check, on_trace)
    if cert is not None:
        return FinitenessVerdict("infinite", cert, checked)
    if cap is not None:
        return FinitenessVerdict("unknown", None, checked, cap=cap)
    # rule (a) ends the stream before its first trace, so no cap fired
    return FinitenessVerdict("finite", None, checked, pruned=checker.pruned)


def realize_walk(T: OrderedTrace, exponents):
    """comp of T in its graph, each cycle repeated exponents[i] times."""
    if len(exponents) != len(T.cycles):
        raise ValueError("one exponent per cycle required")
    if any(e < 1 for e in exponents):
        raise ValueError("exponents must be >= 1")
    repeated = []
    for cyc, e in zip(T.cycles, exponents):
        repeated.extend([cyc] * e)
    return comp(T.graph, T.path, tuple(repeated))


def witness_family(cert: FinitenessCertificate, p: ParamList,
                   n: int) -> Word:
    """The n-th member of the pumped family for an Infinite certificate.

    n = 0 and n = 1 both give the balance word; each further step adds
    the pumping increment y. Membership is re-checked by counting.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    exponents = [x + max(n - 1, 0) * y
                 for x, y in zip(cert.x, cert.y, strict=True)]
    walk = realize_walk(cert.trace, exponents)
    word = word_of_walk(cert.trace.graph, walk)
    if not is_member(word, p):
        raise WitnessError("pumped word failed the membership re-check")
    return word


class _Separator:
    """The equivalence check of one decision: two OccTables, one _Solves.

    check(T) returns a word in exactly one language, with the list it
    belongs to, from the first feasible negation branch of T in the order
    of build_psi_branches, or None when every branch is infeasible. Rules
    (c) and (d) skip infeasible branches without changing which one is
    first.

    Rule (d), the held pre-check. Every branch holding list h contains
    list h's balance system verbatim, so when that system is infeasible
    so is every such branch, and they are neither built nor solved. A
    pre-check that runs out of budget skips nothing: its branches run.
    Either kind of budget error is raised only when no branch of T
    separates.
    """

    def __init__(self, g: DeBruijnGraph, p1: ParamList, p2: ParamList,
                 node_budget: int):
        self.lists = (p1, p2)
        self.tables = (OccTable(g, p1), OccTable(g, p2))
        self.solves = _Solves(node_budget)

    def _separating(self, T: OrderedTrace, branch: LinearSystem,
                    x) -> tuple[Word, int]:
        """The word of T at multiplicities x, re-checked to lie in exactly
        one language, with the list it belongs to."""
        p1, p2 = self.lists
        word = word_of_walk(T.graph, realize_walk(T, x))
        in1 = is_member(word, p1)
        in2 = is_member(word, p2)
        if in1 == in2:
            raise WitnessError(
                f"branch witness {word_to_str(word)} does not separate "
                f"the languages (branch {branch.label!r})")
        return word, 1 if in1 else 2

    def check(self, T: OrderedTrace) -> tuple[Word, int] | None:
        balances = [build_balance_system(T, p, table=t)
                    for p, t in zip(self.lists, self.tables)]
        budget = None
        for h in (1, 2):
            try:
                if not self.solves.feasible(balances[h - 1]):
                    continue
            except BudgetExceededError as e:
                budget = e
            for branch in build_psi_branches(*balances, held=h):
                try:
                    x = self.solves.witness(branch)
                except BudgetExceededError as e:
                    budget = e
                    continue
                if x is not None:
                    return self._separating(T, branch, x)
        if budget is not None:
            raise budget
        return None


def decide_equivalence(p1: ParamList, p2: ParamList,
                       caps: Caps = DEFAULT_CAPS, *,
                       on_trace: OnTrace | None = None
                       ) -> EquivalenceVerdict:
    """Equal, NotEqual with a distinguishing word, or Unknown.

    Phase 1 compares memberships on every word shorter than the graph
    dimension, by direct counting, before the graph is built. Phase 2
    streams traces and tries to refute the per-trace agreement
    (_Separator, with rules (c) and (d)); the first feasible negation
    branch is turned into a concrete word and re-validated before it is
    believed. on_trace, if given, is called with every trace checked, in
    order, before it is checked.

    Phase 1 stops below the first length l with |A|^l words past the
    vertex guard. Since |A|^l <= |A|^dim for l < dim, that stop cuts the
    scan short only when the graph build would fail anyway; a pair past
    the guard still gets a short separator, and on two or more letters
    the scan reads fewer than twice as many words as the guard allows
    vertices.
    """
    if p1.alphabet != p2.alphabet:
        raise ValueError("parameter lists must share an alphabet")
    dim = max(p1.max_len, p2.max_len)
    short = 0
    while short < dim and len(p1.alphabet) ** short <= DEFAULT_MAX_VERTICES:
        short += 1
    for w in p1.alphabet.words_shorter_than(short):
        in1 = is_member(w, p1)
        in2 = is_member(w, p2)
        if in1 != in2:
            return EquivalenceVerdict("not_equal", w, 1 if in1 else 2, 0)

    try:
        g = build(p1.alphabet, dim)
    except DimensionCapError as e:
        return EquivalenceVerdict("unknown", None, None, 0, cap=str(e))

    separator = _Separator(g, p1, p2, caps.node_budget)
    traces = enumerate_traces(g, max_traces=caps.max_traces)
    found, checked, cap = _stream(traces, separator.check, on_trace)
    if found is not None:
        return EquivalenceVerdict("not_equal", *found, checked)
    if cap is not None:
        return EquivalenceVerdict("unknown", None, None, checked, cap=cap)
    return EquivalenceVerdict("equal", None, None, checked)
