"""Reference checks that do not trust the engine.

Occurrence counting here is written against str.find, so it shares no
code with the library's slice counting (words.count_occurrences) nor with
the regex counting of oracle.py.
"""

from __future__ import annotations


def count(text: str, pattern: str) -> int:
    """Overlapping occurrences of pattern in text."""
    n = 0
    i = text.find(pattern)
    while i >= 0:
        n += 1
        i = text.find(pattern, i + 1)
    return n


def balanced(text: str, patterns) -> bool:
    """Whether every pattern occurs in text equally often."""
    return len({count(text, q) for q in patterns}) == 1


def _words(p) -> list[str]:
    return ["".join(w) for w in p.words]


def check_finiteness(case, v, witness_family) -> str | None:
    """None when the verdict passes its reference, else the reason.

    An infinite verdict must carry a certificate whose pumped words for
    n = 1..3 grow strictly in length and are each balanced.
    """
    if v.verdict == "unknown":
        return None
    if v.verdict != case.expect:
        return f"verdict {v.verdict}, reference {case.expect} ({case.basis})"
    if v.verdict == "infinite":
        pats = _words(case.p1)
        lengths = []
        for n in (1, 2, 3):
            word = "".join(witness_family(v.certificate, case.p1, n))
            if not balanced(word, pats):
                return f"pumped word {word!r} (n={n}) is not balanced"
            lengths.append(len(word))
        if not lengths[0] < lengths[1] < lengths[2]:
            return f"pumped lengths {lengths} do not grow strictly"
    return None


def check_equivalence(case, v) -> str | None:
    """None when the verdict passes its reference, else the reason.

    A not-equal verdict must carry a witness in exactly one language, and
    member_of must name that language.
    """
    if v.verdict == "unknown":
        return None
    if v.verdict != case.expect:
        return f"verdict {v.verdict}, reference {case.expect} ({case.basis})"
    if v.verdict == "not_equal":
        word = "".join(v.witness)
        in1 = balanced(word, _words(case.p1))
        in2 = balanced(word, _words(case.p2))
        if in1 == in2:
            return f"witness {word!r} does not separate the languages"
        if v.member_of != (1 if in1 else 2):
            return f"witness {word!r} is not a member of list {v.member_of}"
    return None
