"""The pattern automaton of a parameter list (Aho and Corasick, CACM 1975).

Its states are the prefixes of the parameter words, the empty word
included, so there are at most 1 + sum |w| of them. Reading letter a in
state s leads to the longest suffix of s.a that is a state. Read from the
empty word, any text therefore ends in the longest suffix of the text
that is a prefix of a parameter word. A parameter word that is a suffix
of the text is such a prefix, so it is a suffix of that state too: the
state's suffix_indicator is the text's.
"""

from __future__ import annotations

from .words import ParamList, Word


def pattern_automaton(p: ParamList
                      ) -> tuple[tuple[Word, ...], tuple[tuple[int, int], ...]]:
    """(states, edges): the states sorted by length, then alphabet order,
    so the empty word is state 0; and one edge (s, t) per state s and
    letter, in alphabet order, t the state that letter leads to."""
    order = {a: i for i, a in enumerate(p.alphabet)}
    states = sorted({w[:i] for w in p.words for i in range(len(w) + 1)},
                    key=lambda s: (len(s), [order[a] for a in s]))
    index = {s: i for i, s in enumerate(states)}
    edges = []
    for s in states:
        for a in p.alphabet:
            read = s + (a,)
            t = next(read[i:] for i in range(len(read) + 1)
                     if read[i:] in index)
            edges.append((index[s], index[t]))
    return tuple(states), tuple(edges)
