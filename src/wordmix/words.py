"""Alphabets, words, subword-occurrence counting, and the imbalance measure.

Words are tuples of symbols; symbols are non-empty strings drawn from an
explicit ordered alphabet. Everything here is a pure function of immutable
values, so results are safe to reuse as dict keys and across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .errors import EmptyPatternError

Word = tuple[str, ...]
OccVector = tuple[int, ...]


def word_from_str(text: str) -> Word:
    """Split a plain string into a word of single-character symbols."""
    return tuple(text)


def word_to_str(word: Word) -> str:
    return "".join(word)


def add_vectors(a: OccVector, b: OccVector) -> OccVector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


@dataclass(frozen=True)
class Alphabet:
    """Explicit ordered alphabet; the order fixes every canonical enumeration."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet: {self.symbols!r}")
        if any(not isinstance(s, str) or not s for s in self.symbols):
            raise ValueError("alphabet symbols must be non-empty strings")

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        """One symbol per character, e.g. Alphabet.from_string("ab")."""
        return cls(tuple(text))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.symbols

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(
                f"symbol {symbol!r} is not in alphabet {self.symbols!r}") from None

    def words_of_length(self, n: int) -> Iterator[Word]:
        """All words of length n, lexicographic in alphabet order."""
        return map(tuple, product(self.symbols, repeat=n))

    def words_shorter_than(self, n: int) -> Iterator[Word]:
        for length in range(n):
            yield from self.words_of_length(length)


@dataclass(frozen=True)
class ParamList:
    """Parameter words (w1, ..., wk).

    The language they define is the set of words in which every wi occurs
    equally often as a subword. Duplicates are kept: they add components to
    occurrence vectors but never change memberships.
    """

    alphabet: Alphabet
    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("at least one parameter word is required")
        for w in self.words:
            if not w:
                raise ValueError("parameter words must be non-empty")
            for s in w:
                if s not in self.alphabet:
                    raise ValueError(f"symbol {s!r} not in alphabet {self.alphabet.symbols!r}")

    @property
    def k(self) -> int:
        return len(self.words)

    @property
    def max_len(self) -> int:
        """Largest parameter-word length; the graph dimension used everywhere."""
        return max(len(w) for w in self.words)


def count_occurrences(w: Word, pattern: Word) -> int:
    """Number of factorisations w = u . pattern . u'; overlapping hits all count."""
    if not pattern:
        raise EmptyPatternError("occurrence counting with an empty pattern is undefined here")
    m = len(pattern)
    return sum(1 for i in range(len(w) - m + 1) if w[i:i + m] == pattern)


def occ_vector(w: Word, params: ParamList) -> OccVector:
    """Occurrence counts of every parameter word in w, in parameter order."""
    for s in w:
        if s not in params.alphabet:
            raise ValueError(f"symbol {s!r} not in alphabet {params.alphabet.symbols!r}")
    return tuple(count_occurrences(w, p) for p in params.words)


def suffix_indicator(w: Word, params: ParamList) -> OccVector:
    """Component i is 1 exactly when parameter word i is a suffix of w."""
    return tuple(
        1 if len(p) <= len(w) and w[len(w) - len(p):] == p else 0
        for p in params.words
    )


def diff(vec: OccVector) -> int:
    """Total shortfall against the largest component; zero iff all components agree."""
    if not vec:
        return 0
    top = max(vec)
    return sum(top - c for c in vec)


def is_member(w: Word, params: ParamList) -> bool:
    """Whether every parameter word occurs in w equally often."""
    return diff(occ_vector(w, params)) == 0
