"""The per-decision rules, checked against independent references: for
finiteness (a) the all-cycles pumping prune and (b) skipping cycle-free
traces; for both decisions (c) the one per-decision solve memo, _Solves,
and the system key it answers on; plus the witness checks that must
survive python -O and the absence of cyclic garbage per decision."""

import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import wordmix.decide
from wordmix import (BudgetExceededError, LinearSystem, build,
                     build_balance_system, build_pumping_system,
                     decide_finiteness, enumerate_members, enumerate_traces,
                     solve_system)
from wordmix.debruijn import OccTable
from wordmix.decide import _Solves, _system_key, _TraceChecker
from wordmix.linarith import DEFAULT_NODE_BUDGET, homogeneous_nontrivial
from wordmix.traces import enumerate_cycles

from conftest import plist

SRC = Path(__file__).resolve().parent.parent / "src"

PRUNABLE = plist("ab", "aa", "ab", "b", "a", "b")


def _oracle_finite(p) -> bool:
    # pumping from any member of length 9..12 would show up below that
    return not any(len(w) > 8 for w in enumerate_members(p, 12))


def test_all_small_lists_agree_with_oracle():
    """All 35 lists of 2-3 distinct words from {a,b,aa,ab,ba,bb}."""
    pool = ("a", "b", "aa", "ab", "ba", "bb")
    lists = [c for k in (2, 3) for c in itertools.combinations(pool, k)]
    assert len(lists) == 35
    for words in lists:
        p = plist("ab", *words)
        v = decide_finiteness(p)
        assert v.verdict in ("finite", "infinite"), words
        assert (v.verdict == "finite") == _oracle_finite(p), words


def test_prune_refutes_every_trace_of_a_prunable_list():
    v = decide_finiteness(PRUNABLE)
    assert (v.verdict, v.pruned, v.traces_checked) == ("finite", True, 0)
    traces = list(enumerate_traces(build(PRUNABLE.alphabet, 2)))
    assert len(traces) == 1236
    for T in traces:
        rows = build_pumping_system(T, PRUNABLE)
        assert not homogeneous_nontrivial(rows, len(T.cycles)).feasible


def test_prune_does_not_fire_where_some_trace_pumps():
    p = plist("ab", "ab", "ba", "a", "b")
    v = decide_finiteness(p)
    assert (v.verdict, v.pruned) == ("finite", False)
    assert v.traces_checked > 0


def test_n3_lists_settled_by_prune():
    for words in (("a", "b", "aab"), ("ab", "ba", "a", "b", "aab")):
        v = decide_finiteness(plist("ab", *words))
        assert (v.verdict, v.pruned, v.cap) == ("finite", True, None), words


def test_prune_asks_one_column_per_distinct_cycle_column(monkeypatch):
    """Rule (a) hands _Solves.pumping one column per distinct occurrence
    column of the cycles, not one per simple cycle: on a,b,aab at N=3,
    14 columns for 19 simple cycles."""
    p = plist("ab", "a", "b", "aab")
    g = build(p.alphabet, p.max_len)
    table = OccTable(g, p)
    cycles = enumerate_cycles(g)
    distinct = {table.column(c) for c in cycles}
    assert (len(distinct), len(cycles)) == (14, 19)
    asked = []
    pumping = _Solves.pumping

    def spy(self, rows, m):
        asked.append(sorted(zip(*rows)))
        return pumping(self, rows, m)

    monkeypatch.setattr(_Solves, "pumping", spy)
    assert decide_finiteness(p).pruned
    assert asked == [sorted(tuple(c[0] - c[j] for j in range(1, p.k))
                            for c in distinct)]


def test_stream_skips_exactly_the_cycle_free_traces():
    p = plist("ab", "ab", "ba", "a", "b")
    g = build(p.alphabet, 2)
    every = list(enumerate_traces(g))
    with_cycles = list(enumerate_traces(g, min_cycles=1))
    assert with_cycles == [T for T in every if T.cycles]
    assert all(_TraceChecker(g, p, DEFAULT_NODE_BUDGET).check(T) is None
               for T in every if not T.cycles)
    assert decide_finiteness(p).traces_checked == len(with_cycles)


def test_memo_agrees_with_fresh_checks_on_every_trace():
    """One checker shared across all traces (so most answers come from its
    memo) against a fresh check per trace, and every memo certificate
    against the trace's own systems built without the decision's table."""
    for p in (plist("ab", "ab", "ba"), plist("01", "0", "1", "00", "11")):
        g = build(p.alphabet, 2)
        shared = _TraceChecker(g, p, node_budget=10_000)
        traces = certified = 0
        for T in enumerate_traces(g, min_cycles=1):
            traces += 1
            cert = shared.check(T)
            fresh = _TraceChecker(g, p, node_budget=10_000).check(T)
            assert (cert is None) == (fresh is None), T
            if cert is None:
                continue
            certified += 1
            assert cert.trace == T
            assert build_balance_system(T, p).satisfied_by(cert.x)
            rows = build_pumping_system(T, p)
            assert any(cert.y) and min(cert.y) >= 0
            assert all(sum(a * v for a, v in zip(row, cert.y)) == 0
                       for row in rows)
        # most answers came from the memo
        assert len(shared.solves._pumps) < traces // 4
        assert len(shared.solves._systems) < max(certified, traces // 4)


def _system(columns, rels, rhs, lower=None) -> LinearSystem:
    """The system with these columns, each with lower bound 1 unless
    lower says otherwise."""
    coeffs = tuple(zip(*columns)) if columns else ((),) * len(rels)
    lower = (1,) * len(columns) if lower is None else tuple(lower)
    return LinearSystem(coeffs, tuple(rels), tuple(rhs), lower)


def _lower_one_key(system: LinearSystem) -> tuple:
    """The former _system_key, the reference for the one over z = x - lower:
    for lower bounds all 1, it sorts the columns, drops the zero ones and
    merges r copies of a column c into one, lowering the right-hand side
    by (r-1)*c."""
    assert all(lo == 1 for lo in system.lower)
    rhs = list(system.rhs)
    cols = Counter(zip(*system.coeffs) if system.coeffs
                   else [()] * system.n_vars)
    for c, r in cols.items():
        if r > 1:
            rhs = [b - (r - 1) * a for b, a in zip(rhs, c)]
    return (system.rels, tuple(rhs),
            tuple(sorted(c for c in cols if any(c))))


def _weighted(columns, lower, m: int) -> list[int]:
    """A.lower: the m-row columns summed, each times its lower bound."""
    return [sum(c[i] * lo for c, lo in zip(columns, lower)) for i in range(m)]


@st.composite
def _same_key_pair(draw, bounds=st.integers(0, 2)):
    """A system with at least one zero column and one repeated column,
    and a second system made from it by the moves the key forgets: the
    columns shuffled, the zero columns recounted, each nonzero column
    repeated r' times instead of r, and new lower bounds drawn, with the
    right-hand side moved so that b - A.lower stays the same."""
    m = draw(st.integers(1, 3))
    column = st.tuples(*[st.integers(-2, 2)] * m)
    rels = draw(st.lists(st.sampled_from(("eq", "ge")),
                         min_size=m, max_size=m))
    rhs = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    base = draw(st.lists(column, min_size=1, max_size=3))
    columns = [(0,) * m] + [base[0]] + [c for c in base
                                       for _ in range(draw(st.integers(1, 2)))]
    columns = draw(st.permutations(columns))
    lower = [draw(bounds) for _ in columns]
    other_cols = [(0,) * m] * draw(st.integers(0, 2))
    other_cols += [c for c in sorted(set(columns)) if any(c)
                   for _ in range(draw(st.integers(1, 3)))]
    other_cols = draw(st.permutations(other_cols))
    other_lower = [draw(bounds) for _ in other_cols]
    other_rhs = [b - old + new for b, old, new in
                 zip(rhs, _weighted(columns, lower, m),
                     _weighted(other_cols, other_lower, m))]
    return (_system(columns, rels, rhs, lower),
            _system(other_cols, rels, other_rhs, other_lower))


@settings(max_examples=150, deadline=None)
@given(_same_key_pair())
@example((_system([(0,), (1,), (1,)], ["eq"], [2]),
          _system([(1,)], ["eq"], [1])))
def test_system_key_keeps_feasibility(pair):
    """Systems with one key are feasible together or not at all, and so is
    the system the key reads as, over z >= 0. The example's key
    (('eq',), (0,), ((1,),)) is feasible over z >= 0 but would not be read
    with lower bounds 1."""
    original, other = pair
    key = _system_key(original)
    assert _system_key(other) == key
    rels, rhs, columns = key
    feasible = solve_system(original).feasible
    assert solve_system(other).feasible == feasible
    assert solve_system(
        _system(columns, rels, rhs, [0] * len(columns))).feasible == feasible


@settings(max_examples=150, deadline=None)
@given(st.lists(_same_key_pair(bounds=st.just(1)), min_size=1, max_size=4)
       .map(lambda pairs: [s for pair in pairs for s in pair]))
def test_system_key_partitions_lower_one_systems_as_before(systems):
    """On systems with lower bounds all 1, the key over z = x - lower is
    the former key with its right-hand side lowered by the sum of its
    columns, so the two are equal on exactly the same pairs of systems."""
    for system in systems:
        rels, rhs, cols = _lower_one_key(system)
        shifted = tuple(b - sum(c[i] for c in cols) for i, b in enumerate(rhs))
        assert _system_key(system) == (rels, shifted, cols)
    pairs = {(_lower_one_key(s), _system_key(s)) for s in systems}
    assert len(pairs) == len({old for old, _ in pairs}) \
        == len({new for _, new in pairs})


@settings(max_examples=150, deadline=None)
@given(_same_key_pair(), st.data())
def test_solves_answers_as_fresh_solves_do(pair, data):
    """One _Solves asked feasible or witness about both systems of a
    pair, in a drawn order, answers as a fresh solve of each would, and
    every witness it gives solves its own system."""
    solves = _Solves(DEFAULT_NODE_BUDGET)
    for which in data.draw(st.permutations([0, 1, 0, 1])):
        system = pair[which]
        feasible = solve_system(system).feasible
        if data.draw(st.booleans(), label="witness"):
            x = solves.witness(system)
            assert (x is not None) == feasible
            assert x is None or system.satisfied_by(x)
        else:
            assert solves.feasible(system) == feasible


@pytest.mark.parametrize("ask", [_Solves.feasible, _Solves.witness],
                         ids=["feasible", "witness"])
def test_solves_caches_no_budget_error(monkeypatch, ask):
    """A solve out of budget leaves nothing cached, so the next query
    about the same system solves it; its refutation is then cached."""
    calls = 0

    def once(system, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 1:
            raise BudgetExceededError("fake budget")
        return solve_system(system, **kwargs)

    monkeypatch.setattr(wordmix.decide, "solve_system", once)
    infeasible = _system([(1,)], ["eq"], [0])
    solves = _Solves(DEFAULT_NODE_BUDGET)
    with pytest.raises(BudgetExceededError):
        ask(solves, infeasible)
    assert not ask(solves, infeasible)
    assert calls == 2
    assert not ask(solves, infeasible)
    assert calls == 2


def test_decisions_leave_no_cyclic_garbage():
    p = plist("ab", "aaaa", "bbbb")
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        # fill the interpreter's free lists before measuring
        for _ in range(5):
            decide_finiteness(p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            decide_finiteness(p)
            one_decision = tracemalloc.get_traced_memory()[1] - base
            for _ in range(9):
                decide_finiteness(p)
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    # ten decisions together leave behind less than one decision uses
    assert grown < one_decision, (grown, one_decision)


def test_witness_checks_survive_python_O():
    # an unbalanced family, and the CLI's certificate check on a balanced
    # one that does not grow (y = 0) and on one with an x entry too many
    code = (
        "from wordmix import *\n"
        "from wordmix.cli import _validate_finiteness_certificate\n"
        "from wordmix.errors import WitnessError\n"
        "assert False, 'asserts should be stripped'\n"
        "p = ParamList(Alphabet.from_string('ab'), (('a',), ('b',)))\n"
        "g = build(p.alphabet, 1)\n"
        "bad = FinitenessCertificate(is_trace(g, [(0,), (0, 0)]), (1,), (1,))\n"
        "flat = FinitenessCertificate(is_trace(g, [(0, 1), (0, 1, 0)]),\n"
        "                             (1,), (0,))\n"
        "long = FinitenessCertificate(flat.trace, (1, 1), (1,))\n"
        "validate = lambda c: _validate_finiteness_certificate(c, p)\n"
        "for check, cert in ((lambda c: witness_family(c, p, 1), bad),\n"
        "                    (validate, flat), (validate, long)):\n"
        "    try:\n"
        "        check(cert)\n"
        "    except WitnessError as e:\n"
        "        print('WitnessError', e)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    assert lines[0].startswith("WitnessError"), proc.stdout
    assert lines[1] == "WitnessError the pumped word does not grow", \
        proc.stdout
    assert lines[2] == ("WitnessError certificate needs one x and one y "
                        "entry per cycle"), proc.stdout
