"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a PASS line with the
numbers it established. Counting oracles here are written against re,
independent of the package internals they check.
"""

import itertools
import random
import re
import time

from wordmix import (
    Alphabet,
    FinitenessCertificate,
    build,
    census,
    comp,
    dec,
    decide_equivalence,
    decide_finiteness,
    enumerate_members,
    enumerate_traces,
    is_trace,
    occ_vector,
    walk_occ,
    witness_family,
    word_to_str,
)
from wordmix.debruijn import walk_of_word
from wordmix.errors import NotATraceError
from wordmix.linarith import homogeneous_nontrivial
from wordmix.traces import trace

from conftest import ExplicitGraph, complete_graph, ilp_feasible, plist


SEED = 20260814


def _count(text: str, pattern: str) -> int:
    """Overlapping occurrence count, independent of the package."""
    return len(re.findall(f"(?={re.escape(pattern)})", text))


def _balanced(text: str, patterns) -> bool:
    counts = {_count(text, q) for q in patterns}
    return len(counts) == 1


def _report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {detail}")


def test_01_finiteness_ground_truth():
    t0 = time.perf_counter()
    fixtures = [
        (plist("ab", "ab", "ba", "a"), "infinite"),
        (plist("ab", "ab", "ba", "a", "b"), "finite"),
        (plist("01", "0", "1", "00", "11"), "finite"),
        (plist("01", "0", "1", "01", "10"), "finite"),
    ]
    for p, expected in fixtures:
        assert decide_finiteness(p).verdict == expected, p.words
    tn3 = time.perf_counter()
    p3 = plist("01", "00", "11", "000", "111")
    assert decide_finiteness(p3).verdict == "infinite"
    tn3 = time.perf_counter() - tn3
    total = time.perf_counter() - t0
    assert tn3 < 10.0, f"N=3 case took {tn3:.1f}s"
    assert total < 60.0, f"suite took {total:.1f}s"
    _report(1, f"5 ground-truth verdicts in {total:.2f}s "
               f"(N=3 infinite case {tn3:.2f}s)")


def test_02_witness_family_soundness():
    p = plist("ab", "ab", "ba", "a")
    patterns = ["ab", "ba", "a"]
    d2 = build(Alphabet.from_string("ab"), 2)
    # the certificate exhibited for this language: path ba,ab with the
    # two-cycle pumped
    cert = FinitenessCertificate(is_trace(d2, [(2, 1), (2, 1, 2)]),
                                 (1,), (1,))
    words = [word_to_str(witness_family(cert, p, n))
             for n in range(1, 101)]
    assert words[0] == "babab"
    assert len(set(words)) == 100
    for n, w in enumerate(words, start=1):
        assert _balanced(w, patterns), (n, w)
        # the pumped family is ba(ba)^n b read as words
        assert w == "ba" + "ba" * n + "b"
    # the engine's own certificate must be sound too, whichever trace it
    # found first
    own = decide_finiteness(p).certificate
    own_words = {word_to_str(witness_family(own, p, n)) for n in range(1, 21)}
    assert len(own_words) == 20
    assert all(_balanced(w, patterns) for w in own_words)
    _report(2, "witness_family n=1..100 distinct members, n=1 is 'babab'")


def test_03_decomposition_golden():
    k4 = complete_graph(4)
    w = (1, 2, 3, 2, 3, 4, 3, 4, 2, 4)
    d = dec(k4, w)
    assert d.path == (1, 2, 4)
    assert d.cycles == ((2, 3, 2), (3, 4, 3), (2, 3, 4, 2))
    assert comp(k4, d.path, d.cycles) == w
    _report(3, "K4 golden walk decomposes and recomposes exactly")


def _random_walk(rng, g, verts, max_steps):
    v = rng.choice(verts)
    walk = [v]
    for _ in range(rng.randint(0, max_steps)):
        succ = g.successors(walk[-1])
        if not succ:
            break
        walk.append(rng.choice(succ))
    return tuple(walk)


def test_04_round_trip_at_scale():
    rng = random.Random(SEED)
    ab = Alphabet.from_string("ab")
    p = plist("ab", "ab", "ba", "a", "b")
    k4 = complete_graph(4)
    d2 = build(ab, 2)
    d3 = build(ab, 3)
    checked = 0
    for g in (k4, d2, d3):
        verts = tuple(g.vertices())
        debruijn = g is not k4
        for _ in range(10_000):
            w = _random_walk(rng, g, verts, 50)
            d = dec(g, w)
            assert comp(g, d.path, d.cycles) == w
            assert (len(w) - 1) == (len(d.path) - 1) + sum(
                len(c) - 1 for c in d.cycles)
            if debruijn:
                total = list(walk_occ(g, d.path, p))
                for c in d.cycles:
                    for i, x in enumerate(walk_occ(g, c, p)):
                        total[i] += x
                assert tuple(total) == walk_occ(g, w, p)
            checked += 1
    _report(4, f"{checked} random walks round-tripped with length and "
               "occurrence conservation")


def test_05_occurrence_additivity_at_scale():
    rng = random.Random(SEED + 1)
    ab = Alphabet.from_string("ab")
    graphs = {n: build(ab, n) for n in (1, 2, 3)}
    for _ in range(10_000):
        n = rng.randint(1, 3)
        g = graphs[n]
        k = rng.randint(1, 3)
        p = plist("ab", *("".join(rng.choice("ab")
                                  for _ in range(rng.randint(1, n)))
                          for _ in range(k)))
        v = tuple(rng.choice("ab") for _ in range(n))
        u = tuple(rng.choice("ab") for _ in range(rng.randint(0, 12)))
        walk = walk_of_word(g, v, u)
        lhs = occ_vector(v + u, p)
        rhs = tuple(a + b for a, b in zip(occ_vector(v, p),
                                          walk_occ(g, walk, p)))
        assert lhs == rhs, (v, u, p.words)
    _report(5, "10000 occurrence-vector splits held exactly")


def test_06_trace_oracle_equivalence():
    ab = Alphabet.from_string("ab")
    d2 = build(ab, 2)
    enumerated = list(enumerate_traces(d2))
    as_sets = {t.as_trace() for t in enumerated}
    assert len(as_sets) == len(enumerated)

    # brute force: every walk of length <= 10
    walk_traces = set()
    frontier = [(v,) for v in d2.vertices()]
    for w in frontier:
        walk_traces.add(trace(d2, w))
    for _ in range(10):
        frontier = [w + (s,) for w in frontier for s in d2.successors(w[-1])]
        for w in frontier:
            walk_traces.add(trace(d2, w))
    assert walk_traces <= as_sets

    # every enumerated trace passes the validity test
    for t in enumerated:
        ordered = is_trace(d2, [t.path, *t.cycles])
        assert ordered.as_trace() == t.as_trace()

    # the three attachability verdicts on the five-vertex figure
    lobe = ExplicitGraph(
        (1, 2, 3, 4, 5),
        frozenset([(1, 2), (2, 3), (2, 4), (4, 2), (4, 5), (5, 4), (5, 5),
                   (2, 1)]))
    pi = (1, 2, 3)
    assert is_trace(lobe, [pi, (4, 5, 4), (2, 4, 2)]).path == pi
    for bad in ([pi, (5, 5), (2, 4, 2)], [pi, (2, 1, 2)]):
        try:
            is_trace(lobe, bad)
            assert False, f"{bad} accepted"
        except NotATraceError:
            pass
    _report(6, f"{len(walk_traces)} walk traces covered by "
               f"{len(enumerated)} enumerated; all enumerated valid")


def test_07_equivalence_suite():
    p_inf = plist("ab", "ab", "ba", "a")
    p_fin = plist("ab", "ab", "ba", "a", "b")
    v = decide_equivalence(p_inf, p_fin)
    assert v.verdict == "not_equal"
    w = word_to_str(v.witness)
    in1 = _balanced(w, ["ab", "ba", "a"])
    in2 = _balanced(w, ["ab", "ba", "a", "b"])
    assert in1 != in2
    assert v.member_of == (1 if in1 else 2)

    equal_pairs = [
        (plist("ab", "a", "b"), plist("ab", "b", "a")),
        (plist("ab", "a", "a"), plist("ab", "b", "b")),
    ]
    for p1, p2 in equal_pairs:
        assert decide_equivalence(p1, p2).verdict == "equal"
        # cross-check by exhaustive membership agreement up to length 12
        pats1 = [word_to_str(x) for x in p1.words]
        pats2 = [word_to_str(x) for x in p2.words]
        for n in range(13):
            for tup in itertools.product("ab", repeat=n):
                s = "".join(tup)
                assert _balanced(s, pats1) == _balanced(s, pats2), s
    _report(7, f"not_equal witness {w!r} re-validated; 2 equal pairs "
               "agree on all 16383 words up to length 12")


def test_08_prior_work_consistency():
    rng = random.Random(SEED)

    same_length = 0
    for _ in range(50):
        length = rng.randint(1, 3)
        k = rng.randint(2, 4)
        p = plist("ab", *("".join(rng.choice("ab") for _ in range(length))
                          for _ in range(k)))
        assert decide_finiteness(p).verdict == "infinite", p.words
        same_length += 1

    unary = 0
    for i in range(1, 5):
        for j in range(1, 5):
            p = plist("a", "a" * i, "a" * j)
            expected = "infinite" if i == j else "finite"
            assert decide_finiteness(p).verdict == expected, (i, j)
            unary += 1

    binary_pairs = 0
    for _ in range(20):
        words = tuple("".join(rng.choice("ab")
                              for _ in range(rng.randint(1, 3)))
                      for _ in range(2))
        p = plist("ab", *words)
        assert decide_finiteness(p).verdict == "infinite", words
        binary_pairs += 1

    _report(8, f"{same_length} same-length lists infinite; {unary} unary "
               f"pairs match; {binary_pairs} binary pairs infinite")


def test_09_solver_oracle_equivalence():
    rng = random.Random(SEED)
    disagreements = 0
    ilp_checked = homog_checked = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-6, 6) for _ in range(m)]
        lower = tuple(rng.randint(0, 1) for _ in range(n))

        res = ilp_feasible(rows, rhs, lower)
        brute = None
        for zs in itertools.product(range(9), repeat=n):
            x = tuple(l + z for l, z in zip(lower, zs))
            if all(sum(a * v for a, v in zip(row, x)) == b
                   for row, b in zip(rows, rhs)):
                brute = x
                break
        if brute is not None and not res.feasible:
            disagreements += 1
        if res.feasible:
            x = res.witness
            ok = (all(v >= l for v, l in zip(x, lower)) and
                  all(sum(a * v for a, v in zip(row, x)) == b
                      for row, b in zip(rows, rhs)))
            if not ok:
                disagreements += 1
        ilp_checked += 1

        hres = homogeneous_nontrivial(rows)
        hbrute = None
        for ys in itertools.product(range(7), repeat=n):
            if any(ys) and all(sum(a * v for a, v in zip(row, ys)) == 0
                               for row in rows):
                hbrute = ys
                break
        if hbrute is not None and not hres.feasible:
            disagreements += 1
        if hres.feasible:
            y = hres.witness
            ok = (any(y) and all(v >= 0 for v in y) and
                  all(sum(a * v for a, v in zip(row, y)) == 0
                      for row in rows))
            if not ok:
                disagreements += 1
        homog_checked += 1

    assert disagreements == 0
    _report(9, f"{ilp_checked} ilp + {homog_checked} homogeneous systems, "
               "0 disagreements, all witnesses exact")


def test_10_census_consistency():
    for p in (plist("ab", "ab", "ba", "a", "b"),
              plist("01", "0", "1", "00", "11")):
        members = enumerate_members(p, 12)
        assert members == [()]
        c = census(p, 12)
        assert c.counts == (1,) + (0,) * 12
        csv = c.to_csv()
        assert csv.startswith("length,count\n0,1\n1,0\n")
        assert csv.count("\n") == 14
    _report(10, "both finite languages contain only the empty word up to "
                "length 12; census CSV agrees")
