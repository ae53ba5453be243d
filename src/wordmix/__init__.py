"""Decision procedures for equal-occurrence languages.

Given parameter words w1,...,wk over a fixed alphabet, the language
M(w1,...,wk) collects every word in which all k parameters occur equally
often as (overlapping) subwords. This package decides whether that
language is infinite and whether two such languages coincide, returning
machine-checkable certificates either way: a pumpable trace with its
multiplicities, or a concrete distinguishing word.
"""

from .debruijn import DeBruijnGraph, build, walk_occ
from .decide import (Caps, EquivalenceVerdict, FinitenessCertificate,
                     FinitenessVerdict, decide_equivalence, decide_finiteness,
                     witness_family)
from .decomp import comp, dec
from .errors import (BudgetExceededError, CapExceededError,
                     DimensionCapError, NotATraceError, WitnessError)
from .linarith import (LinearSystem, build_balance_system, build_psi_branches,
                       build_pumping_system, solve_system)
from .oracle import census, enumerate_members
from .traces import OrderedTrace, enumerate_traces, is_trace
from .words import (Alphabet, ParamList, Word, is_member, occ_vector,
                    word_from_str, word_to_str)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "ParamList", "Word", "word_from_str", "word_to_str",
    "occ_vector", "is_member",
    "Caps", "decide_finiteness", "decide_equivalence", "witness_family",
    "FinitenessVerdict", "FinitenessCertificate", "EquivalenceVerdict",
    "OrderedTrace", "enumerate_traces", "is_trace",
    "DeBruijnGraph", "build", "walk_occ", "dec", "comp",
    "LinearSystem", "solve_system", "build_balance_system",
    "build_pumping_system", "build_psi_branches",
    "enumerate_members", "census",
    "WitnessError", "BudgetExceededError", "CapExceededError",
    "DimensionCapError", "NotATraceError",
]
