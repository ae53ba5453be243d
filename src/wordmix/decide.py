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
that forget the order of the cycles. The checks read each key off the
OccTable (_pumped, _branch_keys) and build a system only to solve it.
A key the memo has not seen is first tried against the Farkas
certificates of the decision's earlier LP refutations: a y with
y_r >= 0 on 'ge' rows, y . c <= 0 on every column c and y . b > 0 over
z = x - lower proves A z (rels) b unsolvable in z >= 0, since any such
z would give 0 >= sum (y . c) z_c = y . A z >= y . b > 0; so y refutes
every system it passes, whichever system it came from (_Solves).
Equivalence: (d) a trace's branches holding one list's balance system
are built and solved only when that system is feasible (_Separator).

Past the cycle guard finiteness does not give up at once
(_past_the_guard). Rule (a') asks rule (a)'s question on the pattern
automaton of the list, which needs no cycle list, and can answer Finite
(_TraceChecker.refutes_all_on_automaton). Otherwise a ladder of trace
streams over the short cycles alone can answer Infinite with an ordinary
certificate. Equivalence still answers Unknown there.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import mul, sub

from . import traces
from .automaton import pattern_automaton
from .debruijn import (DEFAULT_MAX_VERTICES, DeBruijnGraph, OccTable, build,
                       word_of_walk)
from .decomp import comp
from .errors import (BudgetExceededError, CapExceededError,
                     DimensionCapError, WitnessError)
from .linarith import (DEFAULT_NODE_BUDGET, Feasibility, LinearSystem,
                       build_balance_system, build_psi_branches,
                       build_pumping_system, homogeneous_nontrivial,
                       is_pumping_witness, pumping_rows, solve_system)
from .traces import DEFAULT_MAX_TRACES, OrderedTrace, enumerate_traces
from .words import (ParamList, Word, is_member, suffix_indicator,
                    word_to_str)


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
    pruned: bool = False  # finite by rule (a) or (a'), before any trace

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


def _key(rels: tuple, rhs: tuple, cols) -> tuple:
    """A key that settles whether the system with relations rels,
    right-hand side rhs and columns cols has a solution z >= 0 in
    integers: rels, rhs and the sorted distinct nonzero columns.

    Over z >= 0 every lower bound is 0, so permuting the columns permutes
    the solutions, and the columns are sorted. r >= 1 copies of a column c
    enter every row as s*c, where s is the sum of their z; s takes every
    value >= 0, as one copy's z does, so the copies merge into one. A
    column that is zero in every row meets the rows whatever its z, so it
    is dropped. Systems with equal keys are therefore feasible together or
    not at all, and the key itself reads as such a system over z >= 0.
    """
    distinct = set(cols)
    distinct.discard((0,) * len(rhs))
    return rels, rhs, tuple(sorted(distinct))


def _system_key(system: LinearSystem) -> tuple:
    """_key of system over z = x - lower >= 0: its relations, b - A.lower
    and its columns. The checks key their systems off the OccTable instead
    (_pumped, _branch_keys) and build one only when its key is new."""
    rhs = tuple(b - sum(a * lo for a, lo in zip(row, system.lower))
                for row, b in zip(system.coeffs, system.rhs))
    return _key(system.rels, rhs, _columns(system.coeffs, system.n_vars))


def _pumped(table: OccTable, T: OrderedTrace) -> tuple[list, tuple]:
    """T's balance system in table over z = x - 1, as (columns, rhs).

    build_balance_system gives T one column per cycle, the cycle's
    pumping column, right-hand side s_j = const[j] - const[0] and lower
    bounds 1, so over z = x - 1 its right-hand side is s - (the sum of
    the columns)."""
    cols = [table.pumping_column(c) for c in T.cycles]
    const = table.const(T.path)
    rhs = tuple(v - const[0] for v in const[1:])
    for c in cols:
        rhs = tuple(map(sub, rhs, c))
    return cols, rhs


def _balance_key(pumped: tuple[list, tuple]) -> tuple:
    """The _system_key of the balance system that _pumped describes."""
    cols, rhs = pumped
    return _key(("eq",) * len(rhs), rhs, cols)


def _branch_keys(held: tuple[list, tuple], other: tuple[list, tuple]):
    """The _system_keys of the branches build_psi_branches(held=h) gives,
    in its order, from the _pumped forms of list h's and the other list's
    balance systems on one trace.

    The branch for component j and sign adds to list h's balance system
    the row sign * (the other's row j) >= sign * s_j + 1. Each cycle's
    column gains the entry sign * c_j of its other column c, and over
    z = x - 1 the new right-hand side is sign * (s_j - sum of those c_j)
    + 1, sign times the other's shifted entry j, plus 1."""
    (hcols, hrhs), (ocols, orhs) = held, other
    rels = ("eq",) * len(hrhs) + ("ge",)
    for j, s in enumerate(orhs):
        for sign in (1, -1):
            yield _key(rels, hrhs + (sign * s + 1,),
                       [h + (sign * o[j],) for h, o in zip(hcols, ocols)])


class _Solves:
    """Every solve of one decision, memoised: rule (c).

    pumping(rows, m) asks for a nonzero y >= 0 with rows . y = 0, for
    each trace of a finiteness decision and for rule (a). feasible(key,
    build) asks whether some x >= lower solves the system build()
    returns, for equivalence's held balance systems. witness(key, build)
    asks for that x, for finiteness's balance systems and equivalence's
    branches. key is the system's _system_key, which the caller reads off
    its OccTable; build runs only when the memo cannot answer.

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

    Farkas certificates. A key the memo has not seen is first tried
    against the certificates of earlier refutations with the same
    relations (learn, refutes), and only a key that none refutes is
    built and solved. Soundness, whatever system y came from (Farkas'
    lemma, Schrijver 1986, 7.3): say the key's system is A z (rels) b
    over z >= 0, with y . b > 0, y . c <= 0 for every column c of A and
    y_r >= 0 on every 'ge' row. For any z >= 0 solving it, y_r A_r z =
    y_r b_r on 'eq' rows and y_r A_r z >= y_r b_r on 'ge' rows, so
    y . A z >= y . b > 0; but y . A z is the sum over c of (y . c) z_c
    <= 0. So no rational z >= 0 solves it, and no integer one. The key
    lists every column of the system up to repeats and zero columns,
    which add nothing to y . A z, so testing its columns suffices.
    """

    def __init__(self, node_budget: int):
        self.node_budget = node_budget
        # distinct pumping columns -> weight per column, or None
        self._pumps: dict[tuple, dict | None] = {}
        # _system_key -> whether the system has a solution x >= lower
        self._systems: dict[tuple, bool] = {}
        # relations -> certificates kept for systems with them
        self._farkas: dict[tuple, list[tuple[int, ...]]] = {}

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

    def learn(self, rels: tuple, y) -> None:
        """Keep y as a certificate to try on systems with relations rels.
        A y of another length than rels is none for their rows, and one
        negative on a 'ge' row could refute a feasible system: neither is
        kept."""
        y = tuple(y)
        if len(y) == len(rels) and all(
                v >= 0 for v, rel in zip(y, rels) if rel == "ge"):
            self._farkas.setdefault(rels, []).append(y)

    def refutes(self, key: tuple) -> bool:
        """Whether a kept certificate proves key's system infeasible."""
        rels, rhs, cols = key
        for y in self._farkas.get(rels, ()):
            if (sum(map(mul, y, rhs)) > 0
                    and all(sum(map(mul, y, c)) <= 0 for c in cols)):
                return True
        return False

    def _known(self, key: tuple) -> bool | None:
        known = self._systems.get(key)
        if known is None and self.refutes(key):
            known = self._systems[key] = False
        return known

    def _solve(self, key: tuple, system: LinearSystem) -> Feasibility:
        result = solve_system(system, node_budget=self.node_budget)
        self._systems[key] = result.feasible
        if result.certificate is not None:
            self.learn(key[0], result.certificate)
        return result

    def feasible(self, key: tuple, build: Callable[[], LinearSystem]) -> bool:
        known = self._known(key)
        if known is None:
            known = self._solve(key, build()).feasible
        return known

    def witness(self, key: tuple, build: Callable[[], LinearSystem]
                ) -> tuple[int, ...] | None:
        if self._known(key) is False:
            return None
        return self._solve(key, build()).witness


class _TraceChecker:
    """The finiteness check of one decision: one OccTable, one _Solves."""

    def __init__(self, g: DeBruijnGraph, p: ParamList, node_budget: int):
        self.p = p
        self.table = OccTable(g, p)
        self.solves = _Solves(node_budget)

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
        return self.solves.pumping(rows, len(cols)) is None

    def refutes_all_on_automaton(self) -> bool:
        """Rule (a'), rule (a) without the cycle list: True when no nonzero
        circulation f >= 0 on the pattern automaton A of p is balanced,
        that is has sum_e f_e * (ind_0 - ind_j)(target of e) = 0 for every
        j, ind being the suffix indicator. A has at most 1 + sum |w| states
        and |alphabet| edges out of each, so the LP stays small where the
        cycles of the graph are past counting.

        Why (a') is exactly rule (a), on the graph D^N with N = p.max_len.
        Map each vertex v of D^N to the state A reaches on reading v from
        the empty word. A state has at most N letters, so the state after
        a text of length >= N depends on its last N letters alone. An edge
        of D^N from v reading a therefore goes to the edge of A from v's
        state reading a, and its target keeps its suffix indicator (see
        automaton). A cycle of D^N maps to a closed walk of A with the same
        occurrence column, and a nonzero balanced combination of cycle
        columns to a nonzero balanced circulation. So if (a') refutes, so
        does (a), and M(p) is finite.

        Conversely a circulation is a sum of cycles of A. Say one of them
        reads u from state s. The state after s.u^m is s for every m; with
        m|u| >= N the D^N walk that reads u from the last N letters of
        u^m is closed, its vertices map onto the cycle's states, and it
        splits into simple cycles whose columns sum to the cycle's. So a
        nonzero balanced circulation gives a nonzero balanced combination
        of cycle columns, the two LPs are feasible together, and (a')
        refutes exactly when (a) does.
        """
        states, edges = pattern_automaton(self.p)
        flow = [tuple((t == v) - (s == v) for s, t in edges)
                for v in range(len(states))]
        cols = [suffix_indicator(states[t], self.p) for _, t in edges]
        rows = (*flow, *pumping_rows(cols, self.p.k))
        return self.solves.pumping(rows, len(edges)) is None

    def check(self, T: OrderedTrace) -> FinitenessCertificate | None:
        """Certificate for T if it satisfies both conditions, else None.

        A trace without cycles has nothing to pump and gets None. The
        pumping test is a rational feasibility question and runs first;
        the balance test is the integer one and only runs when pumping
        holds; its system is keyed off the table and built only when the
        memo cannot answer.
        """
        if not T.cycles:
            return None
        y = self.solves.pumping(
            build_pumping_system(T, self.p, table=self.table), len(T.cycles))
        if y is None:
            return None
        x = self.solves.witness(
            _balance_key(_pumped(self.table, T)),
            lambda: build_balance_system(T, self.p, table=self.table))
        if x is None:
            return None
        return FinitenessCertificate(T, x, y)


OnTrace = Callable[[OrderedTrace], None]


def _stream(stream: Iterator[OrderedTrace],
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
        for T in stream:
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
    """Infinite with a certificate; Finite when rule (a) or (a') refutes
    every trace at once or the stream is exhausted; or Unknown when a cap
    or budget interfered.

    Rule (b): the stream starts at cycle-set size 1. A cycle-free trace
    realises a single word, so _TraceChecker.check refuses it, and
    skipping it loses no certificate. traces_checked therefore counts
    traces with cycles only. on_trace, if given, is called with every
    trace checked, in order, before it is checked. Past the cycle guard
    the decision goes on in _past_the_guard.
    """
    try:
        g = build(p.alphabet, p.max_len)
    except DimensionCapError as e:
        return FinitenessVerdict("unknown", None, 0, cap=str(e))
    checker = _TraceChecker(g, p, caps.node_budget)
    try:
        # looked up on the module, so that a wrapper installed there (as
        # perfbench's tracer installs one) sees every call
        cycles = traces.enumerate_cycles(g)
    except CapExceededError as e:
        return _past_the_guard(g, checker, caps, on_trace, str(e))
    if checker.refutes_all(cycles):
        return FinitenessVerdict("finite", None, 0, pruned=True)
    stream = enumerate_traces(g, cycles=cycles, max_traces=caps.max_traces,
                              min_cycles=1)
    cert, checked, cap = _stream(stream, checker.check, on_trace)
    if cert is not None:
        return FinitenessVerdict("infinite", cert, checked)
    if cap is not None:
        return FinitenessVerdict("unknown", None, checked, cap=cap)
    return FinitenessVerdict("finite", None, checked)


def _past_the_guard(g: DeBruijnGraph, checker: _TraceChecker, caps: Caps,
                    on_trace: OnTrace | None, guard: str
                    ) -> FinitenessVerdict:
    """Finiteness once g has more rooted cycles than the cycle guard
    allows: finite by rule (a'), infinite by a trace over short cycles,
    or else Unknown with the guard's message.

    Rule (a') reads no cycle, so it runs first. Then the short-cycle
    ladder: rung L streams the traces of g drawn from its simple cycles of
    length <= L, for L = 1, 2, ..., and stops at the first rung whose
    cycles hit the guard themselves. Every trace over a subset of g's
    cycles is a trace of g, so a certificate found on any rung is an
    ordinary one. No rung sees every trace of g, so running out of rungs
    or of budget proves nothing.

    Rung L checks at most 4^L traces, and never more than the budget
    still left, so the rungs together check at most caps.max_traces. The
    first traces of a rung are its short paths with few short cycles,
    where the short certificates lie, and a share that grows with L keeps
    a large budget from being spent on rung 1, whose traces run over the
    same few loops on ever longer paths. The rungs share the
    checker, so what one rung solved the next finds in the memo.
    traces_checked counts the traces of every rung; a rung streams the
    first traces of the rungs below again, so a trace may count once per
    rung that checked it.
    """
    if checker.refutes_all_on_automaton():
        return FinitenessVerdict("finite", None, 0, pruned=True)
    checked = 0
    length = 0
    while checked < caps.max_traces:
        length += 1
        try:
            cycles = traces.enumerate_cycles(g, max_length=length)
        except CapExceededError:
            break
        # cut short with islice: a rung's end is no cap of the decision's
        stream = islice(enumerate_traces(g, cycles=cycles, min_cycles=1),
                        min(4 ** length, caps.max_traces - checked))
        cert, n, _ = _stream(stream, checker.check, on_trace)
        checked += n
        if cert is not None:
            return FinitenessVerdict("infinite", cert, checked)
    return FinitenessVerdict("unknown", None, checked, cap=guard)


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
    first. Each held balance system and each branch is asked about by
    its key, read off the tables (_pumped, _branch_keys) in the order of
    build_psi_branches, and built only when the memo cannot answer it.

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

    def _system(self, T: OrderedTrace, built: dict, h: int,
                i: int = -1) -> LinearSystem:
        """List h's balance system on T, or branch i of its held share,
        each built once per trace and kept in built."""
        if (h, i) not in built:
            if i < 0:
                built[h, i] = build_balance_system(
                    T, self.lists[h - 1], table=self.tables[h - 1])
            else:
                shares = build_psi_branches(self._system(T, built, 1),
                                            self._system(T, built, 2),
                                            held=h)
                built.update(((h, j), b) for j, b in enumerate(shares))
        return built[h, i]

    def check(self, T: OrderedTrace) -> tuple[Word, int] | None:
        pumped = [_pumped(t, T) for t in self.tables]
        built = {}
        budget = None
        for h in (1, 2):
            try:
                if not self.solves.feasible(_balance_key(pumped[h - 1]),
                                            partial(self._system, T, built,
                                                    h)):
                    continue
            except BudgetExceededError as e:
                budget = e
            keys = _branch_keys(pumped[h - 1], pumped[2 - h])
            for i, key in enumerate(keys):
                try:
                    x = self.solves.witness(
                        key, partial(self._system, T, built, h, i))
                except BudgetExceededError as e:
                    budget = e
                    continue
                if x is not None:
                    return self._separating(T, built[h, i], x)
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
    stream = enumerate_traces(g, max_traces=caps.max_traces)
    found, checked, cap = _stream(stream, separator.check, on_trace)
    if found is not None:
        return EquivalenceVerdict("not_equal", *found, checked)
    if cap is not None:
        return EquivalenceVerdict("unknown", None, None, checked, cap=cap)
    return EquivalenceVerdict("equal", None, None, checked)
