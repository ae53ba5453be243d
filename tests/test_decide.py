import itertools
import random

import pytest

import wordmix.decide
from wordmix import (
    Alphabet,
    BudgetExceededError,
    Caps,
    FinitenessCertificate,
    build,
    build_balance_system,
    build_psi_branches,
    build_pumping_system,
    decide_equivalence,
    decide_finiteness,
    enumerate_traces,
    is_member,
    is_trace,
    solve_system,
    witness_family,
    word_to_str,
)
from wordmix.debruijn import OccTable, word_of_walk
from wordmix.decide import _Separator, _TraceChecker, realize_walk
from wordmix.errors import WitnessError
from wordmix.linarith import DEFAULT_NODE_BUDGET
from wordmix.traces import OrderedTrace
from wordmix.words import Word

from conftest import plist


D2 = build(Alphabet.from_string("ab"), 2)
T1 = is_trace(D2, [(2, 1), (2, 1, 2)])


def test_infinite_with_certificate():
    p = plist("ab", "ab", "ba", "a")
    v = decide_finiteness(p)
    assert v.verdict == "infinite"
    cert = v.certificate
    assert cert is not None
    # re-check the certificate against the defining systems by hand
    from wordmix import build_balance_system, build_pumping_system
    assert build_balance_system(cert.trace, p).satisfied_by(cert.x)
    rows = build_pumping_system(cert.trace, p)
    assert any(cert.y)
    assert all(sum(a * yi for a, yi in zip(row, cert.y)) == 0 for row in rows)
    # the decision stops at the first certified trace
    assert v.traces_checked >= 1


def test_finite_verdicts():
    fixtures = (
        plist("ab", "ab", "ba", "a", "b"),
        plist("01", "0", "1", "00", "11"),
        plist("a", "a", "aa"),
    )
    for p in fixtures:
        v = decide_finiteness(p)
        assert v.verdict == "finite", p.words
        assert v.certificate is None
        assert v.cap is None


def test_single_word_is_infinite():
    # k = 1: every count trivially equals itself
    v = decide_finiteness(plist("ab", "ab"))
    assert v.verdict == "infinite"


def test_same_letter_counts():
    v = decide_finiteness(plist("ab", "a", "b"))
    assert v.verdict == "infinite"
    w = witness_family(v.certificate, plist("ab", "a", "b"), 1)
    assert is_member(w, plist("ab", "a", "b"))


def test_witness_family_growth():
    p = plist("ab", "ab", "ba", "a")
    cert = FinitenessCertificate(T1, (1,), (1,))
    words = [witness_family(cert, p, n) for n in range(8)]
    # n = 0 and n = 1 coincide; afterwards each step pumps once more
    assert word_to_str(words[1]) == "babab"
    assert words[0] == words[1]
    lengths = [len(w) for w in words[1:]]
    assert lengths == sorted(lengths) and len(set(lengths)) == len(lengths)
    for w in words:
        assert is_member(w, p)
    with pytest.raises(ValueError):
        witness_family(cert, p, -1)


def test_realize_walk():
    w = realize_walk(T1, (2,))
    assert w == (2, 1, 2, 1, 2, 1)
    with pytest.raises(ValueError):
        realize_walk(T1, ())
    with pytest.raises(ValueError):
        realize_walk(T1, (0,))


def test_check_trace_zero_cycles():
    p = plist("ab", "ab", "ba")
    t = is_trace(D2, [(2, 1)])
    # nothing to pump, so no certificate regardless of balance
    assert _TraceChecker(D2, p, DEFAULT_NODE_BUDGET).check(t) is None


def test_check_trace_t1():
    p = plist("ab", "ab", "ba", "a")
    cert = _TraceChecker(D2, p, DEFAULT_NODE_BUDGET).check(T1)
    assert cert is not None
    assert cert.trace is T1
    assert cert.x == (1,) and cert.y == (1,)


def test_unknown_on_trace_cap():
    p = plist("ab", "ab", "ba", "a", "b")
    v = decide_finiteness(p, Caps(max_traces=3))
    assert v.verdict == "unknown"
    assert v.cap is not None
    assert v.certificate is None


def test_dimension_cap_propagates():
    # the fixed 4096-vertex guard: 2^13 = 8192 vertices is one size too big
    p = plist("ab", "a" * 13)
    cap = "2^13 = 8192 vertices exceeds the cap of 4096"
    v = decide_finiteness(p)
    assert (v.verdict, v.certificate, v.traces_checked, v.cap) == (
        "unknown", None, 0, cap)
    v = decide_equivalence(p, plist("ab", "b" * 13))
    assert (v.verdict, v.witness, v.traces_checked, v.cap) == (
        "unknown", None, 0, cap)


@pytest.mark.parametrize("decide", [
    lambda: decide_finiteness(plist("ab", "aaaaa", "bbbbb")),
    lambda: decide_finiteness(plist("abc", "aa", "bb", "cc", "abc")),
    # D^2 over four letters: 16 vertices, past the cycle guard
    lambda: decide_equivalence(plist("abcd", "ab", "cd"),
                               plist("abcd", "cd", "ab", "ba")),
], ids=["ab5", "abc-aa-bb-cc-abc", "equiv-abcd2"])
def test_cycle_guard_gives_unknown_before_any_trace(decide):
    v = decide()
    assert (v.verdict, v.cap, v.traces_checked) == (
        "unknown", "more than 100000 rooted cycles", 0)


def test_equivalence_short_separator_past_the_vertex_guard():
    # ab is in M(a,b) but not in M(a,b,a^13); D^13 would have 8192 vertices
    p1 = plist("ab", "a", "b")
    p2 = plist("ab", "a", "b", "a" * 13)
    v = decide_equivalence(p1, p2)
    assert (v.verdict, v.traces_checked) == ("not_equal", 0)
    assert is_member(v.witness, p1) != is_member(v.witness, p2)
    assert (v.member_of == 1) == is_member(v.witness, p1)


def test_unary_exhaustive():
    """Unary k = 2: finite exactly when the word lengths differ."""
    for i in range(1, 4):
        for j in range(1, 4):
            p = plist("a", "a" * i, "a" * j)
            v = decide_finiteness(p)
            expected = "infinite" if i == j else "finite"
            assert v.verdict == expected, (i, j)


def test_equivalence_not_equal():
    p1 = plist("ab", "ab", "ba", "a")
    p2 = plist("ab", "ab", "ba", "a", "b")
    v = decide_equivalence(p1, p2)
    assert v.verdict == "not_equal"
    assert v.witness is not None
    assert (v.member_of == 1) == is_member(v.witness, p1)
    assert (v.member_of == 2) == is_member(v.witness, p2)
    assert is_member(v.witness, p1) != is_member(v.witness, p2)


def test_equivalence_equal():
    assert decide_equivalence(plist("ab", "a", "b"),
                              plist("ab", "b", "a")).verdict == "equal"
    assert decide_equivalence(plist("ab", "aa", "bb"),
                              plist("ab", "bb", "aa")).verdict == "equal"


def test_equivalence_witness_beyond_short_scan():
    """A pair that agrees on all words shorter than the graph dimension, so
    the separating word must come out of a trace branch."""
    p1 = plist("ab", "aa", "bb")
    p2 = plist("ab", "aa", "bb", "ab")
    v = decide_equivalence(p1, p2)
    assert v.verdict == "not_equal"
    assert v.traces_checked > 0
    assert is_member(v.witness, p1) != is_member(v.witness, p2)


def test_equivalence_alphabet_mismatch():
    with pytest.raises(ValueError):
        decide_equivalence(plist("ab", "a"), plist("abc", "a"))


def test_equivalence_unknown_on_cap():
    p1 = plist("ab", "aa", "bb")
    p2 = plist("ab", "aa", "bb", "ba")
    v = decide_equivalence(p1, p2, Caps(max_traces=1))
    assert v.verdict in ("unknown", "not_equal")
    if v.verdict == "unknown":
        assert v.cap is not None


def test_equivalence_brute_force_cross_check():
    """Verdicts agree with raw membership comparison up to length 8."""
    pairs = [
        (plist("ab", "a", "b"), plist("ab", "b", "a"), True),
        (plist("ab", "ab", "ba", "a"), plist("ab", "ab", "ba", "a", "b"), False),
        (plist("ab", "aa", "bb"), plist("ab", "aa", "bb", "ab"), False),
    ]
    for p1, p2, expect_equal in pairs:
        v = decide_equivalence(p1, p2)
        assert (v.verdict == "equal") == expect_equal
        agree = True
        for n in range(9):
            for tup in itertools.product("ab", repeat=n):
                w = tuple(tup)
                if is_member(w, p1) != is_member(w, p2):
                    agree = False
                    break
            if not agree:
                break
        if expect_equal:
            assert agree
        else:
            assert not agree or len(v.witness) > 8


def test_finiteness_json_shape():
    p = plist("ab", "ab", "ba", "a")
    v = decide_finiteness(p)
    d = v.to_json_dict(12.5)
    assert d["verdict"] == "infinite"
    assert set(d) == {"verdict", "certificate", "stats"}
    assert set(d["certificate"]) == {"trace", "x", "y"}
    assert d["stats"]["traces_checked"] == v.traces_checked
    assert d["stats"]["elapsed_ms"] == 12.5

    pf = plist("ab", "ab", "ba", "a", "b")
    df = decide_finiteness(pf).to_json_dict(1.0)
    assert df["verdict"] == "finite" and df["certificate"] is None


def test_equivalence_json_shape():
    v = decide_equivalence(plist("ab", "ab", "ba", "a"),
                           plist("ab", "ab", "ba", "a", "b"))
    d = v.to_json_dict(3.0)
    assert d["verdict"] == "not_equal"
    assert set(d["certificate"]) == {"witness_word", "member_of"}
    assert isinstance(d["certificate"]["witness_word"], str)


def _budget_fake(monkeypatch, raises):
    """Route the decisions' solves through a fake that raises
    BudgetExceededError("fake budget") on the calls raises(n, system)
    picks (n counts from 1) and solves the others for real."""
    calls = 0

    def fake(system, **kwargs):
        nonlocal calls
        calls += 1
        if raises(calls, system):
            raise BudgetExceededError("fake budget")
        return solve_system(system, **kwargs)
    monkeypatch.setattr(wordmix.decide, "solve_system", fake)


def test_finiteness_budget_on_every_solve_gives_unknown(monkeypatch):
    """Every trace left undecided: the stream is exhausted, but the
    verdict may not be finite."""
    _budget_fake(monkeypatch, lambda n, system: True)
    v = decide_finiteness(plist("01", "0", "1", "00", "11"))
    assert (v.verdict, v.traces_checked, v.cap) == ("unknown", 1214,
                                                   "fake budget")
    assert v.certificate is None


def test_finiteness_keeps_hunting_after_a_budget_hit(monkeypatch):
    _budget_fake(monkeypatch, lambda n, system: n == 1)
    p = plist("ab", "ab", "ba", "a")
    v = decide_finiteness(p)
    assert (v.verdict, v.traces_checked, v.cap) == ("infinite", 12, None)
    cert = v.certificate
    assert build_balance_system(cert.trace, p).satisfied_by(cert.x)
    rows = build_pumping_system(cert.trace, p)
    assert any(cert.y) and min(cert.y) >= 0
    assert all(sum(a * y for a, y in zip(row, cert.y)) == 0 for row in rows)


def test_equivalence_tries_the_other_branches_after_a_budget_hit(
        monkeypatch):
    """The branches that raise would settle the first trace; the others
    of each trace are still tried, and one separates on the second."""
    _budget_fake(monkeypatch, lambda n, system: (
        system.label.startswith("list1")
        and system.label.endswith("component 0 above component 1")))
    p1, p2 = plist("ab", "ab", "ba"), plist("ab", "aa", "bb")
    v = decide_equivalence(p1, p2)
    assert (v.verdict, v.traces_checked, v.cap) == ("not_equal", 2, None)
    assert is_member(v.witness, p1) != is_member(v.witness, p2)
    assert is_member(v.witness, (p1, p2)[v.member_of - 1])


def test_equivalence_budget_hit_on_an_equal_pair_gives_unknown(monkeypatch):
    _budget_fake(monkeypatch, lambda n, system: n == 1)
    v = decide_equivalence(plist("ab", "ab", "ba", "a"),
                           plist("ab", "ba", "ab", "a", "a"))
    assert (v.verdict, v.traces_checked, v.cap) == ("unknown", 1236,
                                                   "fake budget")
    assert v.witness is None and v.member_of is None


def test_equivalence_held_budget_skips_no_branch(monkeypatch):
    """A held balance solve out of budget lets its branches run, and its
    error surfaces only on a trace that nothing separates."""
    p1, p2 = plist("ab", "ab", "ba"), plist("ab", "aa", "bb")
    unfaked = decide_equivalence(p1, p2)
    assert unfaked.verdict == "not_equal"
    _budget_fake(monkeypatch, lambda n, system: system.label == "balance")
    assert decide_equivalence(p1, p2) == unfaked
    v = decide_equivalence(plist("ab", "ab", "ba", "a"),
                           plist("ab", "ba", "ab", "a", "a"))
    assert (v.verdict, v.traces_checked, v.cap) == ("unknown", 1236,
                                                   "fake budget")


def reference_separator(p1, p2, caps=Caps()):
    """The per-trace check of decide_equivalence before the held
    pre-check and the memo, kept verbatim as the differential reference:
    (graph, tables, separate)."""
    dim = max(p1.max_len, p2.max_len)
    g = build(p1.alphabet, dim)
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
            walk = realize_walk(T, result.witness)
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

    return g, tables, separate


def _recipe_pairs(seed, count):
    """count not-equal pairs of the equiv-n2 recipe: 2-5 words of length
    1-2 over ab, each list with a word of length 2, separated by a word
    of length at most 4."""
    rng = random.Random(seed)

    def recipe_list():
        return ["".join(rng.choice("ab") for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(2, 5))]

    pairs = []
    while len(pairs) < count:
        p1, p2 = plist("ab", *recipe_list()), plist("ab", *recipe_list())
        if min(p1.max_len, p2.max_len) < 2:
            continue
        if any(is_member(w, p1) != is_member(w, p2)
               for n in range(5) for w in itertools.product("ab", repeat=n)):
            pairs.append((p1, p2))
    return pairs


def test_separator_matches_the_reference_loop():
    """Per trace, the decision's check (held pre-check and memo) gives
    what the old per-branch loop gives: None, or the same word and list.
    Every trace of two equal pairs, the first 700 of a third, and the
    first 80 of 30 not-equal pairs, each of which some of them separate."""
    equal = [(plist("ab", "ab", "ba", "a"), plist("ab", "ba", "ab", "a", "a"),
              None, False),
             (plist("ab", "b", "aa"), plist("ab", "aa", "b", "b"), None, False),
             (plist("ab", "a", "aa", "b"), plist("ab", "ab", "ba", "a", "b"),
              700, False)]
    not_equal = [(p1, p2, 80, True) for p1, p2 in _recipe_pairs(1, 30)]
    for p1, p2, limit, differ in equal + not_equal:
        g, tables, separate = reference_separator(p1, p2)
        check = _Separator(g, p1, p2, DEFAULT_NODE_BUDGET).check
        separated = 0
        for T in itertools.islice(enumerate_traces(g), limit):
            expected = separate(T)
            assert check(T) == expected, (p1.words, p2.words, T)
            separated += expected is not None
        assert (separated > 0) == differ, (p1.words, p2.words)
