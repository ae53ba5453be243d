"""The per-decision rules of decide_finiteness, checked against independent
references: (a) the all-cycles pumping prune, (b) skipping cycle-free
traces, (c) the per-decision solve memo; plus the witness checks that must
survive python -O and the absence of cyclic garbage per decision."""

import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from wordmix import (build, build_balance_system, build_pumping_system,
                     check_trace, decide_finiteness, enumerate_members,
                     enumerate_traces, homogeneous_nontrivial)
from wordmix.decide import _TraceChecker

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


def test_stream_skips_exactly_the_cycle_free_traces():
    p = plist("ab", "ab", "ba", "a", "b")
    g = build(p.alphabet, 2)
    every = list(enumerate_traces(g))
    with_cycles = list(enumerate_traces(g, min_cycles=1))
    assert with_cycles == [T for T in every if T.cycles]
    assert all(check_trace(T, p) is None for T in every if not T.cycles)
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
            fresh = check_trace(T, p, node_budget=10_000)
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
        assert len(shared._pumps) < traces // 4
        assert len(shared._refuted) < max(certified, traces // 4)


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
    code = (
        "from wordmix import *\n"
        "from wordmix.errors import WitnessError\n"
        "assert False, 'asserts should be stripped'\n"
        "p = ParamList(Alphabet.from_string('ab'), (('a',), ('b',)))\n"
        "g = build(p.alphabet, 1)\n"
        "bad = FinitenessCertificate(is_trace(g, [(0,), (0, 0)]), (1,), (1,))\n"
        "try:\n"
        "    witness_family(bad, p, 1)\n"
        "except WitnessError as e:\n"
        "    print('WitnessError', e)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("WitnessError"), proc.stdout
