import pytest
from hypothesis import given, settings, strategies as st

from wordmix import (
    Alphabet,
    ParamList,
    is_member,
    occ_vector,
    word_from_str,
    word_to_str,
)
from wordmix.errors import EmptyPatternError
from wordmix.words import count_occurrences, diff, suffix_indicator

from conftest import plist


words_ab = st.text(alphabet="ab", max_size=12).map(word_from_str)


def test_round_trip_str():
    assert word_to_str(word_from_str("abba")) == "abba"
    assert word_from_str("") == ()


def test_count_overlapping():
    # occurrences may overlap: "aaa" contains "aa" twice
    assert count_occurrences(word_from_str("aaa"), word_from_str("aa")) == 2
    assert count_occurrences(word_from_str("babab"), word_from_str("ab")) == 2
    assert count_occurrences(word_from_str("babab"), word_from_str("ba")) == 2
    assert count_occurrences(word_from_str("abab"), word_from_str("c")) == 0


def test_count_empty_pattern_rejected():
    with pytest.raises(EmptyPatternError):
        count_occurrences(word_from_str("ab"), ())


@given(words_ab, words_ab)
@settings(max_examples=200, deadline=None)
def test_count_longer_pattern_is_zero(w, v):
    if len(v) > len(w):
        assert count_occurrences(w, v) == 0


@given(words_ab, words_ab, st.text(alphabet="ab", min_size=1, max_size=4).map(word_from_str))
@settings(max_examples=200, deadline=None)
def test_count_concatenation_superadditive(u, w, v):
    """Occurrences of v in uw include all occurrences in u and in w, plus
    possibly some spanning the junction."""
    whole = count_occurrences(u + w, v)
    parts = count_occurrences(u, v) + count_occurrences(w, v)
    assert parts <= whole <= parts + max(len(v) - 1, 1)


def test_occ_vector_fixtures():
    p = plist("ab", "ab", "ba", "a")
    assert occ_vector(word_from_str("babab"), p) == (2, 2, 2)
    assert occ_vector(word_from_str("ba"), p) == (0, 1, 1)
    assert occ_vector((), p) == (0, 0, 0)


def test_occ_vector_rejects_foreign_symbols():
    p = plist("ab", "ab")
    with pytest.raises(ValueError):
        occ_vector(word_from_str("abc"), p)


@given(words_ab, words_ab)
@settings(max_examples=150, deadline=None)
def test_suffix_indicator_matches_direct_count(w, v):
    """sigma(w)[i] is 1 exactly when w ends with the i-th parameter word."""
    p = plist("ab", "ab", "ba", "aa")
    got = suffix_indicator(w, p)
    for i, pat in enumerate(p.words):
        ends = len(w) >= len(pat) and w[len(w) - len(pat):] == pat
        assert got[i] == (1 if ends else 0)


def test_diff():
    assert diff((2, 2, 2)) == 0
    assert diff((0, 1, 1, 1)) == 1
    assert diff((4,)) == 0
    assert diff(()) == 0


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_diff_zero_iff_all_equal(cs):
    d = diff(tuple(cs))
    assert d >= 0
    assert (d == 0) == (len(set(cs)) == 1)


def test_is_member():
    p = plist("ab", "ab", "ba", "a")
    assert is_member(word_from_str("babab"), p)
    assert not is_member(word_from_str("ab"), p)
    assert is_member((), plist("ab", "ab", "ba"))


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet.from_string("")
    with pytest.raises(ValueError):
        Alphabet.from_string("aa")
    with pytest.raises(ValueError):
        Alphabet(("ab", "b"))
    a = Alphabet.from_string("ab")
    assert a.index("b") == 1
    with pytest.raises(ValueError):
        a.index("c")


def test_alphabet_word_enumeration():
    a = Alphabet.from_string("ab")
    assert list(a.words_of_length(0)) == [()]
    assert len(list(a.words_of_length(3))) == 8
    # shorter-than enumerates by length, lexicographic within a length
    got = list(a.words_shorter_than(3))
    assert got[0] == ()
    assert got[1:3] == [("a",), ("b",)]
    assert len(got) == 1 + 2 + 4


def test_paramlist_validation():
    a = Alphabet.from_string("ab")
    with pytest.raises(ValueError):
        ParamList(a, ())
    with pytest.raises(ValueError):
        ParamList(a, (word_from_str("ac"),))
    p = plist("ab", "ab", "ba", "a")
    assert p.k == 3
    assert p.max_len == 2
