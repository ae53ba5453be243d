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
(c) the checks read each system of a trace off the OccTable as its key
(_pumped, _balance_key, _branch_keys): the system over z = x - 1 with
the order, the repeats and the zeros of its columns forgotten. One
per-decision memo, _Solves, solves each key's own system once. A key the
memo has not seen is first tried against the Farkas certificates of the
decision's earlier LP refutations: a y with y_r >= 0 on 'ge' rows,
y . c <= 0 on every column c and y . b > 0 proves A z (rels) b
unsolvable in z >= 0, since any such z would give 0 >= sum (y . c) z_c =
y . A z >= y . b > 0; so y refutes every system it passes, whichever
system it came from (_Solves). Equivalence: (d) a trace's branches
holding one list's balance system are solved only when that system is
feasible (_Separator).

An answer goes from a key's columns back onto the trace's cycles by
_spread. The paper's systems are built only to re-check an answer before
it leaves the decision: an infinite certificate against its trace's
balance and pumping systems (_recheck_certificate), and a separating
branch's multiplicities against that branch (_recheck_branch). Both
raise WitnessError when the answer fails.

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
from itertools import islice
from operator import mul, sub

from . import traces
from .automaton import pattern_automaton
from .debruijn import (DEFAULT_MAX_VERTICES, DeBruijnGraph, OccTable, build,
                       word_of_walk)
from .decomp import comp
from .errors import (BudgetExceededError, CapExceededError,
                     DimensionCapError, WitnessError)
from .linarith import (DEFAULT_NODE_BUDGET, LinearSystem, branch_label,
                       build_balance_system, build_psi_branches,
                       build_pumping_system, homogeneous_nontrivial,
                       is_pumping_witness, solve_system)
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
    not at all, and the key itself reads as such a system over z >= 0,
    which _Solves.solve solves.
    """
    distinct = set(cols)
    distinct.discard((0,) * len(rhs))
    return rels, rhs, tuple(sorted(distinct))


def _spread(cols, key_cols, values) -> tuple[int, ...]:
    """values, one per column of key_cols, spread onto cols: the first
    copy of each column of key_cols takes its value, later copies and
    the columns that key_cols does not list take 0.

    Every column of key_cols is one of cols, so sum_i out_i * cols[i] =
    sum_c values_c * c. A nonzero kernel vector y >= 0 of the distinct
    columns therefore spreads to a nonzero kernel vector y >= 0 of cols.
    A z >= 0 solving the system of a key read off cols, whose right-hand
    side is b - A.lower, spreads to z' >= 0 with A z' = sum_c z_c c, so
    x = lower + z' has A x = A.lower + sum_c z_c c, which stands in the
    key's relations to b: x solves the caller's system, x >= lower. The
    checks read their keys over lower bounds 1.
    """
    value = dict(zip(key_cols, values))
    return tuple(value.pop(c, 0) for c in cols)


def _pumped(table: OccTable, T: OrderedTrace) -> tuple[list, tuple]:
    """T's balance system in table over z = x - 1, as (columns, rhs).

    build_balance_system gives T one column per cycle, the cycle's
    pumping column, right-hand side s_j = const[j] - const[0] and lower
    bounds 1, so over z = x - 1 its right-hand side is s - (the sum of
    the columns). The columns are also T's pumping system."""
    cols = [table.pumping_column(c) for c in T.cycles]
    const = table.const(T.path)
    rhs = tuple(v - const[0] for v in const[1:])
    for c in cols:
        rhs = tuple(map(sub, rhs, c))
    return cols, rhs


def _balance_key(cols: list, rhs: tuple) -> tuple:
    """The key of the balance system that _pumped gives as (cols, rhs)."""
    return _key(("eq",) * len(rhs), rhs, cols)


def _branch_keys(held: tuple[list, tuple], other: tuple[list, tuple],
                 h: int):
    """(key, columns, label) of each branch build_psi_branches(held=h)
    gives, in its order, from the _pumped forms of list h's and the other
    list's balance systems on one trace.

    The branch for component j and sign adds to list h's balance system
    the row sign * (the other's row j) >= sign * s_j + 1. Each cycle's
    column gains the entry sign * c_j of its other column c, and over
    z = x - 1 the new right-hand side is sign * (s_j - sum of those c_j)
    + 1, sign times the other's shifted entry j, plus 1."""
    (hcols, hrhs), (ocols, orhs) = held, other
    rels = ("eq",) * len(hrhs) + ("ge",)
    for j, s in enumerate(orhs):
        for sign in (1, -1):
            cols = [c + (sign * o[j],) for c, o in zip(hcols, ocols)]
            yield (_key(rels, hrhs + (sign * s + 1,), cols), cols,
                   branch_label(h, j + 1, sign))


class _Solves:
    """Every solve of one decision, memoised on keys: rule (c).

    pumping(cols) asks for a nonzero y >= 0 with sum_i y_i cols[i] = 0,
    for each trace of a finiteness decision and for rules (a) and (a').
    solve(key, label) asks for a z >= 0 solving the system a _key names,
    for finiteness's balance systems, equivalence's held balance systems
    and its branches; label only names the system for whoever watches
    solve_system. The callers spread either answer onto their own columns
    (_spread) and re-check what leaves the decision against the paper's
    systems.

    The pumping question depends only on the set of distinct columns:
    a solution over them spreads to one over cols, and summing a solution
    over equal columns gives one over the distinct set. Each pumping
    solve is cached on that set with its weights, since pump-feasible
    traces whose balance fails come back again and again. Each key's z,
    or None for an infeasible key, is cached the same way: a feasible
    held system does not end the decision and comes back on many traces.
    A solve that runs out of budget is not cached, so a later query with
    the same key tries again, as it would without the memo. Every memo
    holds one entry per distinct system met and lives as long as the
    decision.

    Farkas certificates. A key the memo has not seen is first tried
    against the certificates of earlier refutations with the same
    relations (learn, refutes), and only a key that none refutes is
    solved. Soundness, whatever system y came from (Farkas' lemma,
    Schrijver 1986, 7.3): say the key's system is A z (rels) b over
    z >= 0, with y . b > 0, y . c <= 0 for every column c of A and
    y_r >= 0 on every 'ge' row. For any z >= 0 solving it, y_r A_r z =
    y_r b_r on 'eq' rows and y_r A_r z >= y_r b_r on 'ge' rows, so
    y . A z >= y . b > 0; but y . A z is the sum over c of (y . c) z_c
    <= 0. So no rational z >= 0 solves it, and no integer one.
    """

    def __init__(self, node_budget: int):
        self.node_budget = node_budget
        # distinct pumping columns -> weight per column, or None
        self._pumps: dict[tuple, tuple[int, ...] | None] = {}
        # key -> a solution z >= 0 of its system, or None
        self._systems: dict[tuple, tuple[int, ...] | None] = {}
        # relations -> certificates kept for systems with them
        self._farkas: dict[tuple, list[tuple[int, ...]]] = {}

    def pumping(self, cols) -> tuple[int, ...] | None:
        """A nonzero y >= 0 with sum_i y_i cols[i] = 0, or None."""
        key = tuple(sorted(set(cols)))
        if key not in self._pumps:
            self._pumps[key] = homogeneous_nontrivial(
                tuple(zip(*key)), len(key)).witness
        weights = self._pumps[key]
        return None if weights is None else _spread(cols, key, weights)

    def learn(self, rels: tuple, y) -> None:
        """Keep y as a certificate to try on systems with relations rels.
        A y of another length than rels is none for their rows, and one
        negative on a 'ge' row could refute a feasible system: neither is
        kept, and nor is None, a refutation without a certificate."""
        if y is not None and len(y) == len(rels) and all(
                v >= 0 for v, rel in zip(y, rels) if rel == "ge"):
            self._farkas.setdefault(rels, []).append(tuple(y))

    def refutes(self, key: tuple) -> bool:
        """Whether a kept certificate proves key's system infeasible."""
        rels, rhs, cols = key
        for y in self._farkas.get(rels, ()):
            if (sum(map(mul, y, rhs)) > 0
                    and all(sum(map(mul, y, c)) <= 0 for c in cols)):
                return True
        return False

    def solve(self, key: tuple, label: str) -> tuple[int, ...] | None:
        """A z >= 0, one entry per column of key, solving key's system, or
        None when it has none."""
        if key in self._systems:
            return self._systems[key]
        if self.refutes(key):
            self._systems[key] = None
            return None
        rels, rhs, cols = key
        coeffs = tuple(tuple(c[r] for c in cols) for r in range(len(rels)))
        result = solve_system(
            LinearSystem(coeffs, rels, rhs, (0,) * len(cols), label),
            node_budget=self.node_budget)
        self.learn(rels, result.certificate)
        self._systems[key] = result.witness
        return result.witness


def _recheck_certificate(cert: FinitenessCertificate, p: ParamList,
                         table: OccTable | None = None
                         ) -> FinitenessCertificate:
    """cert, once its x solves the balance system and its y the pumping
    system of its trace, both built anew (on table, if given); else
    WitnessError."""
    T = cert.trace
    if not build_balance_system(T, p, table).satisfied_by(cert.x):
        raise WitnessError("balance multiplicities failed their re-check")
    if not is_pumping_witness(build_pumping_system(T, p, table), cert.y):
        raise WitnessError("pumping increment failed its re-check")
    return cert


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
        every column of a trace's pumping matrix is the pumping column of
        one of cycles. A nonzero y >= 0 in the kernel of the trace's
        matrix, summed onto those columns, is one of the LP over the
        distinct pumping columns of cycles. So if that LP is infeasible,
        every trace fails its pumping test and M(p) is finite, whatever
        the trace caps would have cut off.
        """
        cols = {self.table.pumping_column(c) for c in cycles}
        return self.solves.pumping(cols) is None

    def refutes_all_on_automaton(self) -> bool:
        """Rule (a'), rule (a) without the cycle list: True when no nonzero
        circulation f >= 0 on the pattern automaton A of p is balanced,
        that is has sum_e f_e * (ind_0 - ind_j)(target of e) = 0 for every
        j, ind being the suffix indicator. A has at most 1 + sum |w| states
        and |alphabet| edges out of each, so the LP stays small where the
        cycles of the graph are past counting. Edge e's column holds its
        flow entries, +1 at its target and -1 at its source, then its
        pumping entries.

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
        cols = []
        for s, t in edges:
            ind = suffix_indicator(states[t], self.p)
            cols.append(tuple((t == v) - (s == v) for v in range(len(states)))
                        + tuple(ind[0] - c for c in ind[1:]))
        return self.solves.pumping(cols) is None

    def check(self, T: OrderedTrace) -> FinitenessCertificate | None:
        """Certificate for T if it satisfies both conditions, else None.

        A trace without cycles has nothing to pump and gets None. The
        pumping test is a rational feasibility question and runs first;
        the balance test is the integer one and only runs when pumping
        holds. Both read T's columns off the table once; a certificate is
        re-checked against T's systems before it is returned.
        """
        if not T.cycles:
            return None
        cols, rhs = _pumped(self.table, T)
        y = self.solves.pumping(cols)
        if y is None:
            return None
        key = _balance_key(cols, rhs)
        z = self.solves.solve(key, "balance")
        if z is None:
            return None
        x = tuple(1 + v for v in _spread(cols, key[2], z))
        return _recheck_certificate(FinitenessCertificate(T, x, y), self.p,
                                    self.table)


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


def _recheck_branch(T: OrderedTrace, lists: tuple[ParamList, ParamList],
                    h: int, i: int, x,
                    tables: tuple[OccTable | None, ...] = (None, None)
                    ) -> LinearSystem:
    """Branch i of build_psi_branches(held=h) on T, built anew from the
    two lists' balance systems (on tables, if given), once x solves it;
    else WitnessError."""
    balances = [build_balance_system(T, p, t) for p, t in zip(lists, tables)]
    branch = build_psi_branches(*balances, held=h)[i]
    if not branch.satisfied_by(x):
        raise WitnessError(
            f"branch multiplicities failed their re-check ({branch.label})")
    return branch


class _Separator:
    """The equivalence check of one decision: two OccTables, one _Solves.

    check(T) returns a word in exactly one language, with the list it
    belongs to, from the first feasible negation branch of T in the order
    of build_psi_branches, or None when every branch is infeasible. Rules
    (c) and (d) skip infeasible branches without changing which one is
    first. Each held balance system and each branch is asked about by
    its key, read off the tables (_pumped, _balance_key, _branch_keys) in
    the order of build_psi_branches; only the separating branch is built,
    to re-check its x (_recheck_branch) before its word is realised and
    checked by membership.

    Rule (d), the held pre-check. Every branch holding list h contains
    list h's balance system verbatim, so when that system is infeasible
    so is every such branch, and they are not solved. A pre-check that
    runs out of budget skips nothing: its branches run. Either kind of
    budget error is raised only when no branch of T separates.
    """

    def __init__(self, g: DeBruijnGraph, p1: ParamList, p2: ParamList,
                 node_budget: int):
        self.lists = (p1, p2)
        self.tables = (OccTable(g, p1), OccTable(g, p2))
        self.solves = _Solves(node_budget)

    def _separating(self, T: OrderedTrace, h: int, i: int,
                    x) -> tuple[Word, int]:
        """The word of T at multiplicities x, which solve branch i of list
        h's share, re-checked to lie in exactly one language, with the
        list it belongs to."""
        branch = _recheck_branch(T, self.lists, h, i, x, self.tables)
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
        pumped = [_pumped(t, T) for t in self.tables]
        budget = None
        for h in (1, 2):
            try:
                if self.solves.solve(_balance_key(*pumped[h - 1]),
                                     "balance") is None:
                    continue
            except BudgetExceededError as e:
                budget = e
            keys = _branch_keys(pumped[h - 1], pumped[2 - h], h)
            for i, (key, cols, label) in enumerate(keys):
                try:
                    z = self.solves.solve(key, label)
                except BudgetExceededError as e:
                    budget = e
                    continue
                if z is not None:
                    return self._separating(
                        T, h, i, tuple(1 + v for v in _spread(cols, key[2], z)))
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
