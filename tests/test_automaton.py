"""The pattern automaton against brute force on every short text."""

import pytest

from wordmix.automaton import pattern_automaton
from wordmix.words import suffix_indicator

from conftest import plist


def test_states_and_edges_of_two_runs():
    states, edges = pattern_automaton(plist("ab", "aaaaa", "bbbbb"))
    assert len(states) == 11 and len(edges) == 22
    assert states[0] == () and states[1:3] == (("a",), ("b",))
    aaaa = states.index(tuple("aaaa"))
    # aaaa.a is a state; aaaa.b falls back to b
    assert edges[2 * aaaa] == (aaaa, states.index(tuple("aaaaa")))
    assert edges[2 * aaaa + 1] == (aaaa, states.index(("b",)))


@pytest.mark.parametrize("p", [
    plist("ab", "aaaaa", "bbbbb"),
    plist("ab", "aab", "ab", "b", "aab"),
    plist("ab", "abab", "ba", "bbab"),
    plist("abc", "aa", "bb", "cc", "abc"),
    plist("abc", "bca", "cc", "ac", "a", "b"),
], ids=["ab-runs", "ab-dup", "ab-overlap", "abc-pairs", "abc-mixed"])
def test_reading_any_text_ends_in_its_longest_prefix_suffix(p):
    """From the empty word, every text of length <= 7 ends in the longest
    suffix of the text that is a prefix of a word, and that state has the
    text's suffix indicator."""
    states, edges = pattern_automaton(p)
    # the edges out of each state come in alphabet order
    size = len(p.alphabet)
    step = {(s, p.alphabet.symbols[i % size]): t
            for i, (s, t) in enumerate(edges)}
    prefixes = set(states)
    texts = [()]
    for _ in range(7):
        texts = [w + (a,) for w in texts for a in p.alphabet]
        for w in texts:
            s = 0
            for a in w:
                s = step[s, a]
            want = next(w[i:] for i in range(len(w) + 1) if w[i:] in prefixes)
            assert states[s] == want, w
            assert suffix_indicator(states[s], p) == suffix_indicator(w, p)
