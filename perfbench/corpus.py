"""Seeded case corpora for the benchmark workloads, each case with a reference.

A workload is a basket of cases that the worker decides in passes. The
seed only draws the inputs; the library receives nothing but the
generated ParamLists and the workload's Caps. Every case carries the
verdict a reference gives for it and where that reference comes from, so
no verdict is checked against the engine itself. Cases without a
reference are never drawn.

Two baskets hold fixed lists. Relabelling the alphabet or reordering the
words of such a list moves its decision time by up to a third (the
solver's pivots follow row and column order), which across a basket of
a few cases swamps the run-to-run spread; so the seed only orders the
finite-n2 lists, and the frontier keeps one order because case order
moves its peak RSS by a fifth. The seed draws the lists themselves where
a basket holds hundreds of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from check import balanced
from wordmix import Alphabet, Caps, ParamList, enumerate_members


@dataclass(frozen=True)
class Case:
    cid: str
    p1: ParamList
    p2: ParamList | None  # None: "is M(p1) infinite?"
    expect: str  # reference verdict
    basis: str  # where the reference comes from

    @property
    def text(self) -> str:
        alpha = "".join(self.p1.alphabet.symbols)
        q = _show(self.p1)
        if self.p2 is not None:
            q += " == " + _show(self.p2)
        return f"{alpha}:{q}"


@dataclass(frozen=True)
class Workload:
    name: str
    caps: Caps
    make: object  # seed -> list[Case]
    warmup: tuple  # (alphabet, words) or (alphabet, words, words)


def _show(p: ParamList) -> str:
    return ",".join("".join(w) for w in p.words)


def plist(alpha: str, words) -> ParamList:
    if isinstance(words, str):
        words = words.split(",")
    return ParamList(Alphabet.from_string(alpha), tuple(tuple(w) for w in words))


def _shuffled(seed: int, cases: list[Case]) -> list[Case]:
    cases = list(cases)
    random.Random(seed).shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# finite-n2

# The three acceptance fixtures and five finite lists of the ROADMAP recipe
# at seed 1 (alphabet ab, 2-5 words of length <= 2, random.Random(1)). The
# pumping LP refutes most traces of all but 0,1,00,11, which spends most of
# its time in balance-ILP branch and bound. The recipe's other
# balance-bound lists (4-14 s each) and most of its pump-bound ones are
# left out so that a run repeats the basket about three times.
FINITE_N2 = (
    ("ab", "ab,ba,a,b"), ("01", "0,1,00,11"), ("01", "0,1,01,10"),
    ("ab", "aa,ab,b,a,b"), ("ab", "bb,b,ab,ab,a"), ("ab", "ba,bb,b,aa,b"),
    ("ab", "ba,a,aa,b"), ("ab", "ab,ba,a,aa,bb"),
)

ORACLE_MAXLEN = 12


def oracle_finite(p: ParamList) -> bool:
    """No member of length 9..12 by brute force. On all 150 seed-1 recipe
    lists this agreed with the engine's finiteness verdict."""
    return not any(len(w) > 8 for w in enumerate_members(p, ORACLE_MAXLEN))


def finite_n2(seed: int) -> list[Case]:
    cases = []
    for i, (alpha, words) in enumerate(FINITE_N2):
        p = plist(alpha, words)
        if not oracle_finite(p):
            raise RuntimeError(f"{words} has no finite reference")
        cases.append(Case(f"f{i:02d}", p, None, "finite",
                          f"oracle: no member of length 9-{ORACLE_MAXLEN}"))
    return _shuffled(seed, cases)


# ---------------------------------------------------------------------------
# infinite-early

# Lists infinite by theorem, the prior-work families of the acceptance
# tests: k words of one length N (a de Bruijn word of order N holds each
# word of length N once, so its powers are members), and any two words
# over {a, b}. The engine exits at the first certifying trace, so these
# measure trace and cycle enumeration up to it. Fixed counts per family
# and word length keep the basket's mix, and with it the median and the
# tail, the same from seed to seed; (alphabet, N, k range, count), with
# N = 0 for the binary pairs, whose words have length 1 to 3. The tail
# falls among the thirty 80-115 ms lists of four-letter words over ab;
# abc lists stop at three words, since the one or two four-word abc lists
# a seed may draw (up to 135 ms) would set it instead.
INFINITE_EARLY = (
    ("ab", 1, (2, 4), 20), ("ab", 2, (2, 4), 80), ("ab", 3, (2, 4), 100),
    ("ab", 4, (2, 4), 30), ("abc", 1, (2, 4), 20), ("abc", 2, (2, 3), 60),
    ("ab", 0, (2, 2), 60),
)


def infinite_early(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for alpha, n, (kmin, kmax), count in INFINITE_EARLY:
        for _ in range(count):
            words = ["".join(rng.choice(alpha)
                             for _ in range(n or rng.randint(1, 3)))
                     for _ in range(rng.randint(kmin, kmax))]
            basis = ("theorem: two words over {a, b}" if n == 0 else
                     f"theorem: words of one length {n}")
            cases.append(Case(f"i{len(cases):03d}", plist(alpha, words),
                              None, "infinite", basis))
    return _shuffled(seed, cases)


# ---------------------------------------------------------------------------
# equiv-n2

# Equal pairs: a list against a reordering of its words with one word
# duplicated. The language depends only on the word set, so the pair is
# equal by definition, and the engine must refute every negation branch of
# all 1236 traces.
EQUAL_PAIRS = (("ab,ba,a", "ba,ab,a,a"), ("aa,ab,b", "b,ab,aa,aa"),
               ("a,ab,b,bb", "bb,b,ab,a,a"), ("ab,b", "b,ab,ab"),
               ("b,aa", "aa,b,b"), ("ba,b,bb,ab,aa", "aa,ab,bb,b,ba,ba"))
# Not-equal pairs per length of their shortest separating word, which sets
# how many traces the engine streams before it finds one (length 2: one to
# four, length 4: up to sixteen). Fixed counts, in the recipe's own mix of
# lengths, keep the basket's cost still from seed to seed. Pairs that need
# a longer separator are not drawn.
NOT_EQUAL_BY_SEPARATOR = {2: 257, 3: 40, 4: 3}
SEPARATOR_MAXLEN = max(NOT_EQUAL_BY_SEPARATOR)
# Candidate pairs drawn for every seed, so that building the corpus costs
# the same whatever the seed. They hold about twenty length-4 pairs; only
# if they hold fewer than wanted would more be drawn.
DRAWS = 16000


def _recipe_list(rng) -> list[str]:
    return ["".join(rng.choice("ab") for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(2, 5))]


def _separator(w1: list[str], w2: list[str]) -> str | None:
    """Shortest word in exactly one language, if one of length <= 4 exists."""
    for n in range(SEPARATOR_MAXLEN + 1):
        for t in product("ab", repeat=n):
            s = "".join(t)
            if balanced(s, w1) != balanced(s, w2):
                return s
    return None


def equiv_n2(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for a, b in EQUAL_PAIRS:
        w1, w2 = a.split(","), b.split(",")
        if set(w1) != set(w2):
            raise RuntimeError(f"{a} and {b} differ in their word sets")
        cases.append((w1, w2, "equal", "same word set"))
    wanted = dict(NOT_EQUAL_BY_SEPARATOR)
    draws = 0
    while draws < DRAWS or any(wanted.values()):
        draws += 1
        w1, w2 = _recipe_list(rng), _recipe_list(rng)
        if max(map(len, w1)) < 2 or max(map(len, w2)) < 2:
            continue
        # words shorter than the dimension 2 are compared before any trace,
        # so a separator of length 0 or 1 would bypass the trace stream
        sep = _separator(w1, w2)
        if sep is None or not wanted.get(len(sep)):
            continue
        wanted[len(sep)] -= 1
        cases.append((w1, w2, "not_equal", f"separated by {sep!r}"))
    return _shuffled(seed, [
        Case(f"e{i:03d}", plist("ab", w1), plist("ab", w2), expect, basis)
        for i, (w1, w2, expect, basis) in enumerate(cases)])


# ---------------------------------------------------------------------------
# frontier

# Inputs the engine cannot settle under the frontier trace cap, each with
# a hand proof. An infinite proof names a word u whose powers u^n are all
# balanced; it is re-checked by counting when the corpus is built.
FRONTIER = (
    ("ab", "a,b,aab", None, "finite",
     "every b needs aa before it, so |a| >= 2|b| = 2|a|"),
    ("ab", "a,b,aaa", None, "finite",
     "an a-run of length r has r-2 < r copies of aaa, so no a, so no b"),
    ("ab", "ab,ba,a,b,aab", None, "finite",
     "|ab| = |ba| = |a| flanks every a with b, so |b| > |a| unless empty"),
    ("ab", "a,b,ab,ba,aba", None, "finite",
     "|ab| = |ba| = |a| flanks every a with b, so |b| > |a| unless empty"),
    ("ab", "aa,bb,aba", None, "infinite", "u = aababb"),
    ("ab", "aaaaa,bbbbb", None, "infinite", "u = aaaaabbbbb"),
    ("abc", "aa,bb,cc,abc", None, "infinite", "u = aabccbb"),
    ("ab", "a,aa,b", "ab,ba,a,b", "equal",
     "both are {empty}: |a| = |aa| forbids a; |ab| = |ba| = |a| forces "
     "|b| > |a|"),
    ("ab", "a,ba,aa,b", "b,b,a,aa", "equal",
     "both are {empty}: |a| = |aa| forbids a, then |b| = |a| = 0"),
)

# Above 293, the trace that certifies aa,bb,aba.
FRONTIER_MAX_TRACES = 700


def _check_family(words: list[str], basis: str) -> None:
    u = basis.removeprefix("u = ")
    if not all(balanced(u * n, words) for n in (1, 2, 3, 4)):
        raise RuntimeError(f"{basis} is not a member family of {words}")


def frontier(seed: int) -> list[Case]:
    """The FRONTIER cases in their fixed order; seed is not used."""
    cases = []
    for i, (alpha, a, b, expect, basis) in enumerate(FRONTIER):
        if expect == "infinite":
            _check_family(a.split(","), basis)
        p2 = None if b is None else plist(alpha, b)
        cases.append(Case(f"x{i}", plist(alpha, a), p2, expect, basis))
    return cases


WORKLOADS = {
    w.name: w for w in (
        Workload("finite-n2", Caps(), finite_n2, ("ab", "ab,ba,a")),
        Workload("infinite-early", Caps(), infinite_early, ("ab", "ab,ba")),
        Workload("equiv-n2", Caps(), equiv_n2, ("ab", "ab,a", "ab,b")),
        Workload("frontier", Caps(max_traces=FRONTIER_MAX_TRACES), frontier,
                 ("ab", "ab,ba,a")),
    )
}
