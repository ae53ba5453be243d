"""The per-decision rules, checked against independent references: for
finiteness (a) the all-cycles pumping prune, its form (a') on the pattern
automaton and (b) skipping cycle-free traces; for both decisions (c) the
one per-decision solve memo, _Solves, and the system key it solves; the
short-cycle ladder past the cycle guard; plus the witness checks that
must survive python -O and the absence of cyclic garbage per decision."""

import gc
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import wordmix.decide
from wordmix import (BudgetExceededError, CapExceededError, Caps,
                     LinearSystem, build, build_balance_system,
                     build_psi_branches, build_pumping_system,
                     decide_equivalence, decide_finiteness,
                     enumerate_members, enumerate_traces, solve_system)
from wordmix.cli import _validate_finiteness_certificate
from wordmix.debruijn import OccTable
from wordmix.decide import (_balance_key, _branch_keys, _pumped, _Solves,
                            _spread, _TraceChecker)
from wordmix.linarith import DEFAULT_NODE_BUDGET, homogeneous_nontrivial
from wordmix.traces import enumerate_cycles

from conftest import (plist, reference_phase1, relaxation, small_systems,
                      system_columns, system_key)

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
    """Rule (a) hands _Solves.pumping one column per distinct pumping
    column of the cycles, not one per simple cycle: on a,b,aab at N=3,
    11 columns for 19 simple cycles (14 distinct occurrence columns)."""
    p = plist("ab", "a", "b", "aab")
    g = build(p.alphabet, p.max_len)
    table = OccTable(g, p)
    cycles = enumerate_cycles(g)
    distinct = {table.pumping_column(c) for c in cycles}
    assert (len(distinct), len({table.column(c) for c in cycles}),
            len(cycles)) == (11, 14, 19)
    asked = []
    pumping = _Solves.pumping

    def spy(self, cols):
        asked.append(sorted(cols))
        return pumping(self, cols)

    monkeypatch.setattr(_Solves, "pumping", spy)
    assert decide_finiteness(p).pruned
    assert asked == [sorted(distinct)]


def _random_lists(seed: int, alphabet: str, max_len: int, count: int):
    """count seeded lists of 2-6 words over alphabet, with at least one
    word of length max_len and the others of length 1..max_len."""
    rng = random.Random(seed)
    lists = []
    for _ in range(count):
        words = ["".join(rng.choice(alphabet) for _ in range(n))
                 for n in [max_len] + [rng.randint(1, max_len)
                                       for _ in range(rng.randint(1, 5))]]
        lists.append(plist(alphabet, *rng.sample(words, len(words))))
    return lists


def test_rule_a_prime_refutes_exactly_when_rule_a_does():
    """Rule (a') on the pattern automaton against rule (a) on the cycles
    of D^N, on 400 seeded lists: binary N = 1..4 and ternary N = 1..2."""
    lists = [p for n in range(1, 5) for p in _random_lists(n, "ab", n, 60)]
    lists += [p for n in (1, 2) for p in _random_lists(10 + n, "abc", n, 80)]
    refuted = 0
    for p in lists:
        g = build(p.alphabet, p.max_len)
        checker = _TraceChecker(g, p, DEFAULT_NODE_BUDGET)
        a = checker.refutes_all(enumerate_cycles(g))
        assert checker.refutes_all_on_automaton() == a, p.words
        refuted += a
    assert len(lists) == 400
    assert 20 < refuted < 380


def test_rule_a_prime_finite_past_the_guard_agrees_with_oracle():
    """Seeded binary N = 5 lists, all past the cycle guard: those that
    rule (a') proves finite carry no trace and have no long member up to
    length 12; the others' certificates pass the counting check."""
    finite = 0
    for p in _random_lists(5, "ab", 5, 30):
        with pytest.raises(CapExceededError):
            enumerate_cycles(build(p.alphabet, 5))
        v = decide_finiteness(p, Caps(max_traces=700))
        if v.verdict == "finite":
            finite += 1
            assert (v.pruned, v.traces_checked) == (True, 0), p.words
            assert _oracle_finite(p), p.words
        elif v.verdict == "infinite":
            _validate_finiteness_certificate(v.certificate, p)
    assert finite >= 3


def test_ladder_ends_at_the_rung_whose_cycles_hit_the_guard():
    """Past the cycle guard, rule (a') does not refute abcdefgh:
    a,b,...,h,aa, whose only member is the empty word (an a-run of length
    r holds r - 1 copies of aa), and no trace over short cycles certifies
    it. Rungs 1-5 check 4 + 16 + 64 + 256 + 1024 traces; rung 6's cycles
    hit the guard themselves, which ends the ladder with the guard's
    message."""
    p = plist("abcdefgh", *"abcdefgh", "aa")
    assert enumerate_members(p, 4) == [()]
    v = decide_finiteness(p)
    assert (v.verdict, v.cap, v.traces_checked) == (
        "unknown", "more than 100000 rooted cycles", 1364)


def test_stream_skips_exactly_the_cycle_free_traces():
    p = plist("ab", "ab", "ba", "a", "b")
    g = build(p.alphabet, 2)
    every = list(enumerate_traces(g))
    with_cycles = list(enumerate_traces(g, min_cycles=1))
    assert with_cycles == [T for T in every if T.cycles]
    assert all(_TraceChecker(g, p, DEFAULT_NODE_BUDGET).check(T) is None
               for T in every if not T.cycles)
    assert decide_finiteness(p).traces_checked == len(with_cycles)


def test_memo_agrees_with_fresh_checks_on_every_trace(monkeypatch):
    """One checker shared across all traces (so most answers come from its
    memo) against a fresh check per trace, and every memo certificate
    against the trace's own systems built without the decision's table.
    On a,b,ab,ba most balance refutations come from kept Farkas
    certificates, not from solves."""
    for p in (plist("ab", "ab", "ba"), plist("01", "0", "1", "00", "11"),
              plist("ab", "a", "b", "ab", "ba")):
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
        if p.words == plist("ab", "a", "b", "ab", "ba").words:
            # kept certificates answered all but a tenth of the distinct
            # balance systems asked about, with no solve
            assert certified == 0
            solved = []
            monkeypatch.setattr(wordmix.decide, "solve_system",
                                lambda s, **kw: solved.append(s)
                                or solve_system(s, **kw))
            counted = _TraceChecker(g, p, node_budget=10_000)
            for T in enumerate_traces(g, min_cycles=1):
                assert counted.check(T) is None
            assert 0 < len(solved) < len(counted.solves._systems) // 10


def _system(columns, rels, rhs, lower=None) -> LinearSystem:
    """The system with these columns, each with lower bound 1 unless
    lower says otherwise."""
    coeffs = tuple(zip(*columns)) if columns else ((),) * len(rels)
    lower = (1,) * len(columns) if lower is None else tuple(lower)
    return LinearSystem(coeffs, tuple(rels), tuple(rhs), lower)


def _lower_one_key(system: LinearSystem) -> tuple:
    """The key as it was before it moved over z = x - lower, the reference
    for system_key: for lower bounds all 1, it sorts the columns, drops
    the zero ones and merges r copies of a column c into one, lowering
    the right-hand side by (r-1)*c."""
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
    key = system_key(original)
    assert system_key(other) == key
    rels, rhs, columns = key
    feasible = solve_system(original).feasible
    assert solve_system(other).feasible == feasible
    assert solve_system(
        _system(columns, rels, rhs, [0] * len(columns))).feasible == feasible


def test_column_keys_equal_the_built_systems_keys():
    """The checks key each trace's balance systems and branches off the
    OccTable (_pumped, _balance_key, _branch_keys) and build no system to
    ask about them. On every trace of seeded binary pairs at N = 1 and 2,
    and the first 300 traces of those at N = 3, those keys equal the keys
    of the systems built without the table, and each branch's columns
    and label equal the built branch's, branch by branch in
    build_psi_branches order."""
    lists = [p for n in (1, 2, 3) for p in _random_lists(20 + n, "ab", n, 6)]
    pairs = list(zip(lists[::2], lists[1::2]))
    keyed = 0
    for p1, p2 in pairs:
        dim = max(p1.max_len, p2.max_len)
        g = build(p1.alphabet, dim)
        tables = (OccTable(g, p1), OccTable(g, p2))
        for T in itertools.islice(enumerate_traces(g),
                                  None if dim <= 2 else 300):
            pumped = [_pumped(t, T) for t in tables]
            balances = [build_balance_system(T, p) for p in (p1, p2)]
            for h in (1, 2):
                assert _balance_key(*pumped[h - 1]) == \
                    system_key(balances[h - 1])
                assert list(_branch_keys(pumped[h - 1], pumped[2 - h],
                                         h)) == [
                    (system_key(b), system_columns(b), b.label)
                    for b in build_psi_branches(*balances, held=h)]
                keyed += 1
    assert keyed > 2000


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
        assert system_key(system) == (rels, shifted, cols)
    pairs = {(_lower_one_key(s), system_key(s)) for s in systems}
    assert len(pairs) == len({old for old, _ in pairs}) \
        == len({new for _, new in pairs})


def _ask(solves: _Solves, system: LinearSystem):
    """solves asked about system by its key, as the checks ask, with the
    answer spread back onto system's columns over its lower bounds."""
    key = system_key(system)
    z = solves.solve(key, system.label)
    if z is None:
        return None
    spread = _spread(system_columns(system), key[2], z)
    return tuple(lo + v for lo, v in zip(system.lower, spread))


@settings(max_examples=150, deadline=None)
@given(_same_key_pair(), st.data())
def test_solves_answers_as_fresh_solves_do(pair, data):
    """One _Solves asked about both systems of a pair, in a drawn order,
    answers as a fresh solve of each would, and every answer it gives,
    spread onto a system's own columns, solves that system."""
    solves = _Solves(DEFAULT_NODE_BUDGET)
    for which in data.draw(st.permutations([0, 1, 0, 1])):
        system = pair[which]
        x = _ask(solves, system)
        assert (x is not None) == solve_system(system).feasible
        assert x is None or system.satisfied_by(x)


@pytest.mark.parametrize("system", [_system([(1,)], ["eq"], [2]),
                                    _system([(1,)], ["eq"], [0])],
                         ids=["feasible", "infeasible"])
def test_solves_caches_no_budget_error(monkeypatch, system):
    """A solve out of budget leaves nothing cached, so the next query
    about the same system solves it; its answer, a solution or a
    refutation, is then cached."""
    calls = 0

    def once(system, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 1:
            raise BudgetExceededError("fake budget")
        return solve_system(system, **kwargs)

    monkeypatch.setattr(wordmix.decide, "solve_system", once)
    solves = _Solves(DEFAULT_NODE_BUDGET)
    with pytest.raises(BudgetExceededError):
        _ask(solves, system)
    answer = _ask(solves, system)
    assert (answer is not None) == solve_system(system).feasible
    assert calls == 2
    assert _ask(solves, system) == answer
    assert calls == 2


@settings(max_examples=300, deadline=None)
@given(small_systems(),
       st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=4),
                max_size=6))
@example(LinearSystem(((1,),), ("ge",), (-1,), (0,)), [[-1]])
@example(LinearSystem(((1, 1),), ("eq",), (-1,), (0, 0)), [[-1]])
def test_kept_certificates_refute_no_feasible_system(system, ys):
    """A _Solves that keeps arbitrary integer vectors as certificates for
    the system's relations refutes the system only when it has no
    rational solution x >= lower, so whatever the vectors' origin its
    answer is sound. The examples are a vector negative on a 'ge' row,
    which would refute the feasible x >= -1 if kept, and one that refutes
    the infeasible x1 + x2 = -1 over x >= 0."""
    solves = _Solves(DEFAULT_NODE_BUDGET)
    for y in ys:
        solves.learn(system.rels, y)
    key = system_key(system)
    if solves.refutes(key):
        assert reference_phase1(*relaxation(system)) is None
        assert solves.solve(key, system.label) is None
        assert not solve_system(system).feasible


def test_decisions_leave_no_cyclic_garbage():
    """No decision of either kind leaves cyclic garbage, and none keeps
    memory: the net traced growth over 30 decisions, after 10, stays
    under 2 KiB, which a leak of 70 bytes per decision would break. A
    full collection also empties the interpreter's free lists, so the two
    traced sizes taken right after one count live blocks only."""
    p = plist("ab", "aaaa", "bbbb")
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        try:
            for _ in range(10):
                decide_finiteness(p)
            assert gc.collect() == 0
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(30):
                decide_finiteness(p)
            assert gc.collect() == 0
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # past the cycle guard: rule (a'), then rungs of streams cut short
        for _ in range(3):
            decide_finiteness(plist("ab", "aaaaa", "bbbbb"))
        assert gc.collect() == 0
        # an equal pair whose held balance systems are often feasible, so
        # that its branches are keyed, built and solved
        decide_equivalence(plist("ab", "b", "aa"), plist("ab", "aa", "b", "b"))
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert grown < 2048, grown


def test_witness_checks_survive_python_O():
    # an unbalanced family, and the CLI's certificate check on a balanced
    # one that does not grow (y = 0) and on one with an x entry too many;
    # then the solve memo's check on the certificates it keeps; then the
    # decisions' re-checks of a certificate and of a separating branch,
    # each passing an answer that holds and refusing it with x tampered
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
        "        print('WitnessError', e)\n"
        "from wordmix.decide import (_Solves, _key, _recheck_branch,\n"
        "                            _recheck_certificate)\n"
        "solves = _Solves(10)\n"
        "solves.learn(('ge',), (-1,))\n"
        "print('refuted', solves.refutes(_key(('ge',), (-1,), [(1,)])))\n"
        "q1 = ParamList(p.alphabet, (('a', 'b'), ('b', 'a')))\n"
        "q2 = ParamList(p.alphabet, (('a', 'a'), ('b', 'b')))\n"
        "T = is_trace(build(p.alphabet, 2), [(0,), (0, 0)])\n"
        "for check in (lambda x: _recheck_certificate(\n"
        "                  FinitenessCertificate(flat.trace, x, (1,)), p),\n"
        "              lambda x: _recheck_branch(T, (q1, q2), 1, 0, x)):\n"
        "    check((1,))\n"
        "    try:\n"
        "        check((0,))\n"
        "    except WitnessError as e:\n"
        "        print('WitnessError', e)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6, proc.stdout
    assert lines[0].startswith("WitnessError"), proc.stdout
    assert lines[1] == "WitnessError the pumped word does not grow", \
        proc.stdout
    assert lines[2] == ("WitnessError certificate needs one x and one y "
                        "entry per cycle"), proc.stdout
    # a kept certificate negative on a 'ge' row would refute x >= -1
    assert lines[3] == "refuted False", proc.stdout
    # x = (1,) passes both re-checks (else the run fails); x = (0,) fails
    # each of them
    assert lines[4] == ("WitnessError balance multiplicities failed their "
                        "re-check"), proc.stdout
    assert lines[5] == ("WitnessError branch multiplicities failed their "
                        "re-check (list1 balanced, other component 0 above "
                        "component 1)"), proc.stdout
