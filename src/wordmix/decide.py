"""Top-level decisions: is M(w1,...,wk) infinite, and do two lists agree.

Both procedures stream the traces of the de Bruijn graph whose dimension
is the longest parameter word, through one loop, _stream. Finiteness
early-exits on the first trace whose balance and pumping systems are both
feasible; equivalence must exhaust the traces, refuting every negation
branch, before it may answer Equal. Caps and solver budgets surface as an
Unknown verdict, never as a silently weakened answer.

Each decision builds its graph once, plus one OccTable per parameter
list, defines its per-trace check over them, hands both to _stream and
maps what comes back to its verdict. Finiteness also applies three rules,
each argued where it is implemented: (a) one pumping LP over all cycles
can refute every trace at once (_TraceChecker.refutes_all), (b)
cycle-free traces are not streamed (decide_finiteness), and (c) pumping
solves and refuted balance systems are memoised on keys that forget the
order of the cycles (_TraceChecker).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .debruijn import (DEFAULT_MAX_VERTICES, DeBruijnGraph, OccTable, build,
                       word_of_walk)
from .decomp import comp
from .errors import BudgetExceededError, CapExceededError, WitnessError
from .linarith import (DEFAULT_NODE_BUDGET, build_balance_system,
                       build_psi_branches, build_pumping_system,
                       homogeneous_nontrivial, is_pumping_witness,
                       pumping_rows, solve_system)
from .traces import (DEFAULT_MAX_CYCLES_PER_TRACE, DEFAULT_MAX_TRACES,
                     OrderedTrace, enumerate_traces)
from .words import ParamList, Word, is_member, word_to_str


@dataclass(frozen=True)
class Caps:
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_cycles_per_trace: int = DEFAULT_MAX_CYCLES_PER_TRACE
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

    def to_json_dict(self, p: ParamList, elapsed_ms: float) -> dict:
        cert = None
        if self.certificate is not None:
            g = build(p.alphabet, p.max_len)
            c = self.certificate
            cert = {
                "trace": c.trace.to_json_dict(g),
                "x": list(c.x),
                "y": list(c.y),
            }
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


class _TraceChecker:
    """check_trace for one decision: one OccTable, one solve memo.

    Rule (c), the per-decision memo. The pumping question, a nonzero
    y >= 0 with A y = 0, depends only on the set of distinct columns of
    A: a solution over the distinct columns is one over the trace once
    each column's weight goes to its first cycle and repeats get 0, and
    summing a trace's solution over equal columns gives one over the
    distinct set. Each pumping solve is cached on that set with its
    witness, which is mapped to the trace's own cycle order and
    re-checked against the trace's own system before use: pump-feasible
    traces whose balance fails come back again and again. The balance
    question, x >= 1 with B x = r, depends only on r and the multiset of
    columns of B: the lower bounds are all 1, so permuting the cycles
    permutes the solutions. Only refuted balance keys are kept, since a
    feasible balance system (met only after pumping holds) ends the
    decision. A solve that runs out of budget is not cached, so a later
    trace with the same key tries again, as it would without the memo.
    Both memos hold one entry per distinct system met and live as long
    as the decision.
    """

    def __init__(self, g: DeBruijnGraph, p: ParamList, node_budget: int):
        self.p = p
        self.table = OccTable(g, p)
        self.node_budget = node_budget
        self.pruned = False
        # distinct pumping columns -> weight per column, or None
        self._pumps: dict[tuple, dict | None] = {}
        # (rhs, sorted balance columns) of the infeasible balance systems
        self._refuted: set[tuple] = set()

    def refutes_all(self, cycles) -> bool:
        """Rule (a), the all-cycles pumping prune: True when no trace can
        pump, and so none can carry a certificate.

        Soundness: a trace's cycles are rooted simple cycles of g, so its
        pumping matrix is a column subset of the one over all of them. A
        nonzero y >= 0 in the kernel of the subset, padded with zeros, is
        one of the whole. So if the LP over the distinct columns of all
        cycles is infeasible, every trace fails its pumping test and M(p)
        is finite, whatever the trace caps would have cut off.
        """
        rows = pumping_rows([self.table.column(c) for c in cycles], self.p.k)
        self.pruned = self._pump_weights(_columns(rows, len(cycles))) is None
        return self.pruned

    def _pump_weights(self, cols) -> dict | None:
        """A nonzero y >= 0 over the distinct columns, as column -> weight,
        or None when there is none; memoised on the set of columns."""
        key = tuple(sorted(set(cols)))
        if key not in self._pumps:
            result = homogeneous_nontrivial(tuple(zip(*key)), len(key))
            self._pumps[key] = (dict(zip(key, result.witness))
                                if result.feasible else None)
        return self._pumps[key]

    def _pumping(self, T: OrderedTrace) -> tuple[int, ...] | None:
        rows = build_pumping_system(T, self.p, table=self.table)
        cols = _columns(rows, len(T.cycles))
        weights = self._pump_weights(cols)
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

    def _balance(self, T: OrderedTrace) -> tuple[int, ...] | None:
        system = build_balance_system(T, self.p, table=self.table)
        key = (system.rhs,
               tuple(sorted(_columns(system.coeffs, len(T.cycles)))))
        if key in self._refuted:
            return None
        result = solve_system(system, node_budget=self.node_budget)
        if not result.feasible:
            self._refuted.add(key)
            return None
        return result.witness

    def check(self, T: OrderedTrace) -> FinitenessCertificate | None:
        if not T.cycles:
            return None
        y = self._pumping(T)
        if y is None:
            return None
        x = self._balance(T)
        if x is None:
            return None
        return FinitenessCertificate(T, x, y)


def check_trace(T: OrderedTrace, p: ParamList, *,
                node_budget: int = DEFAULT_NODE_BUDGET
                ) -> FinitenessCertificate | None:
    """Certificate for T if it satisfies both conditions, else None.

    A trace without cycles has nothing to pump and gets None. The pumping
    test is a rational feasibility question and runs first; the balance
    test is the integer one and only runs when pumping holds.
    """
    return _TraceChecker(build(p.alphabet, p.max_len), p,
                         node_budget).check(T)


OnTrace = Callable[[OrderedTrace, tuple[OccTable, ...]], None]


def _stream(traces: Iterator[OrderedTrace],
            check: Callable[[OrderedTrace], object | None],
            on_trace: Callable[[OrderedTrace], None] | None
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
    realises a single word, so check_trace refuses it, and skipping it
    loses no certificate. traces_checked therefore counts traces with
    cycles only. on_trace, if given, is called as on_trace(T, tables)
    with every trace checked, in order, before it is checked; tables is
    the decision's one OccTable, in a tuple.
    """
    g = build(p.alphabet, p.max_len, max_vertices=caps.max_vertices)
    checker = _TraceChecker(g, p, caps.node_budget)
    traces = enumerate_traces(g,
                              max_cycles_per_trace=caps.max_cycles_per_trace,
                              max_traces=caps.max_traces,
                              min_cycles=1, prune=checker.refutes_all)
    tables = (checker.table,)
    cert, checked, cap = _stream(
        traces, checker.check,
        None if on_trace is None else lambda T: on_trace(T, tables))
    if cert is not None:
        return FinitenessVerdict("infinite", cert, checked)
    if cap is not None:
        return FinitenessVerdict("unknown", None, checked, cap=cap)
    # rule (a) ends the stream before its first trace, so no cap fired
    return FinitenessVerdict("finite", None, checked, pruned=checker.pruned)


def realize_walk(g: DeBruijnGraph, T: OrderedTrace, exponents):
    """comp of the trace with each cycle repeated exponents[i] times."""
    if len(exponents) != len(T.cycles):
        raise ValueError("one exponent per cycle required")
    if any(e < 1 for e in exponents):
        raise ValueError("exponents must be >= 1")
    repeated = []
    for cyc, e in zip(T.cycles, exponents):
        repeated.extend([cyc] * e)
    return comp(g, T.path, tuple(repeated))


def witness_family(cert: FinitenessCertificate, p: ParamList,
                   n: int) -> Word:
    """The n-th member of the pumped family for an Infinite certificate.

    n = 0 and n = 1 both give the balance word; each further step adds
    the pumping increment y, so lengths grow strictly from n = 1 on.
    Membership is re-checked by direct counting before returning.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    g = build(p.alphabet, p.max_len)
    exponents = [x + max(n - 1, 0) * y for x, y in zip(cert.x, cert.y)]
    walk = realize_walk(g, cert.trace, exponents)
    word = word_of_walk(g, walk)
    if not is_member(word, p):
        raise WitnessError("pumped word failed the membership re-check")
    return word


def decide_equivalence(p1: ParamList, p2: ParamList,
                       caps: Caps = DEFAULT_CAPS, *,
                       on_trace: OnTrace | None = None
                       ) -> EquivalenceVerdict:
    """Equal, NotEqual with a distinguishing word, or Unknown.

    Phase 1 compares memberships on every word shorter than the graph
    dimension. Phase 2 streams traces and tries to refute the per-trace
    agreement; any feasible negation branch is turned into a concrete
    word and re-validated before it is believed. on_trace, if given, is
    called as on_trace(T, tables) with every trace checked, in order,
    before it is checked; tables holds the decision's two OccTables.
    """
    if p1.alphabet != p2.alphabet:
        raise ValueError("parameter lists must share an alphabet")
    dim = max(p1.max_len, p2.max_len)
    g = build(p1.alphabet, dim, max_vertices=caps.max_vertices)

    for w in p1.alphabet.words_shorter_than(dim):
        in1 = is_member(w, p1)
        in2 = is_member(w, p2)
        if in1 != in2:
            return EquivalenceVerdict("not_equal", w, 1 if in1 else 2, 0)

    tables = (OccTable(g, p1), OccTable(g, p2))

    def separate(T: OrderedTrace) -> tuple[Word, int] | None:
        """A word in exactly one language from the first feasible branch
        of T, with the list it belongs to. A branch out of budget does
        not stop the others; its error is raised only when none of them
        separates."""
        budget = None
        for branch in build_psi_branches(T, p1, p2, tables=tables):
            try:
                result = solve_system(branch, node_budget=caps.node_budget)
            except BudgetExceededError as e:
                budget = e
                continue
            if not result.feasible:
                continue
            walk = realize_walk(g, T, result.witness)
            word = word_of_walk(g, walk)
            in1 = is_member(word, p1)
            in2 = is_member(word, p2)
            if in1 == in2:
                raise WitnessError(
                    f"branch witness {word_to_str(word)} does not separate "
                    f"the languages (branch {branch.label!r})")
            return word, 1 if in1 else 2
        if budget is not None:
            raise budget
        return None

    traces = enumerate_traces(g,
                              max_cycles_per_trace=caps.max_cycles_per_trace,
                              max_traces=caps.max_traces)
    found, checked, cap = _stream(
        traces, separate,
        None if on_trace is None else lambda T: on_trace(T, tables))
    if found is not None:
        return EquivalenceVerdict("not_equal", *found, checked)
    if cap is not None:
        return EquivalenceVerdict("unknown", None, None, checked, cap=cap)
    return EquivalenceVerdict("equal", None, None, checked)


def timed(fn, *args, **kwargs):
    """Run fn, returning (result, elapsed milliseconds)."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - t0) * 1000.0
