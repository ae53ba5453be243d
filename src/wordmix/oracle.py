"""Brute-force ground truth: exhaustive member enumeration and census.

The counting here is deliberately written against a different mechanism
than the main library (regex lookahead instead of window slices) so the
two paths can disagree when one of them is wrong. Everything is
exhaustive within an explicit budget; nothing samples or estimates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from .errors import BudgetExceededError
from .words import ParamList, Word

DEFAULT_WORD_BUDGET = 10_000_000


def _occurrences(text: str, pattern: str) -> int:
    # overlapping occurrences via a zero-width lookahead
    return len(re.findall(f"(?={re.escape(pattern)})", text))


def _is_member_str(text: str, patterns: list[str]) -> bool:
    counts = [_occurrences(text, v) for v in patterns]
    return len(set(counts)) == 1


def enumerate_members(p: ParamList, maxlen: int, *,
                      budget: int = DEFAULT_WORD_BUDGET) -> list[Word]:
    """All members of M(p) up to length maxlen, length-lexicographic."""
    size = len(p.alphabet)
    total = sum(size ** n for n in range(maxlen + 1))
    if total > budget:
        raise BudgetExceededError(
            f"{total} words of length <= {maxlen} exceed the budget {budget}")
    patterns = ["".join(w) for w in p.words]
    symbols = list(p.alphabet)
    members = []
    for n in range(maxlen + 1):
        for tup in product(symbols, repeat=n):
            if _is_member_str("".join(tup), patterns):
                members.append(tup)
    return members


@dataclass(frozen=True)
class Census:
    """Exact per-length member counts: counts[n] = |M(p) ∩ A^n|."""

    counts: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["length,count"]
        lines.extend(f"{n},{c}" for n, c in enumerate(self.counts))
        return "\n".join(lines) + "\n"


def census(p: ParamList, maxlen: int, *,
           budget: int = DEFAULT_WORD_BUDGET) -> Census:
    counts = [0] * (maxlen + 1)
    for w in enumerate_members(p, maxlen, budget=budget):
        counts[len(w)] += 1
    return Census(tuple(counts))
