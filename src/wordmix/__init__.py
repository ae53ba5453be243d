"""Decision procedures for equal-occurrence languages.

Given parameter words w1,...,wk over a fixed alphabet, the language
M(w1,...,wk) collects every word in which all k parameters occur equally
often as (overlapping) subwords. This package decides whether that
language is infinite and whether two such languages coincide, returning
machine-checkable certificates either way: a pumpable trace with its
multiplicities, or a concrete distinguishing word.
"""

from .debruijn import (DeBruijnGraph, build, to_dot, walk_occ, walk_of_word,
                       word_of_walk)
from .decide import (DEFAULT_CAPS, Caps, EquivalenceVerdict,
                     FinitenessCertificate, FinitenessVerdict,
                     decide_equivalence, decide_finiteness, realize_walk,
                     witness_family)
from .decomp import (Decomposition, ExplicitGraph, check_walk, comp,
                     complete_graph, dec, is_cycle, is_path)
from .errors import (BadStartLengthError, BudgetExceededError,
                     CapExceededError, CompositionUndefinedError,
                     DimensionCapError, EmptyPatternError, NotATraceError,
                     NotAWalkError, OutOfRangeError, WitnessError)
from .linarith import (Feasibility, LinearSystem, build_balance_system,
                       build_psi_branches, build_pumping_system,
                       homogeneous_nontrivial, ilp_feasible, solve_system)
from .oracle import Census, census, enumerate_members, enumerate_walk_traces
from .traces import (MultiTrace, OrderedTrace, Trace, enumerate_cycles,
                     enumerate_paths, enumerate_traces, is_trace, mtrace,
                     trace)
from .words import (Alphabet, ParamList, Word, add_vectors,
                    count_occurrences, diff, is_member, occ_vector,
                    pref_suff, suffix_indicator, word_from_str, word_to_str)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BadStartLengthError", "BudgetExceededError", "Caps",
    "CapExceededError", "Census", "CompositionUndefinedError",
    "DEFAULT_CAPS", "DeBruijnGraph", "Decomposition", "DimensionCapError",
    "EmptyPatternError", "EquivalenceVerdict", "ExplicitGraph",
    "Feasibility", "FinitenessCertificate", "FinitenessVerdict",
    "LinearSystem", "MultiTrace", "NotATraceError", "NotAWalkError",
    "OrderedTrace", "OutOfRangeError", "ParamList", "Trace", "Word",
    "add_vectors", "build", "build_balance_system", "build_psi_branches",
    "build_pumping_system", "census",
    "check_walk", "comp", "complete_graph",
    "count_occurrences", "dec", "decide_equivalence", "decide_finiteness",
    "diff", "enumerate_cycles", "enumerate_members", "enumerate_paths",
    "enumerate_traces", "enumerate_walk_traces", "homogeneous_nontrivial",
    "ilp_feasible", "is_cycle", "is_member", "is_path", "is_trace",
    "mtrace", "occ_vector", "pref_suff", "realize_walk", "solve_system",
    "suffix_indicator", "to_dot", "trace", "walk_occ", "walk_of_word",
    "WitnessError", "witness_family", "word_from_str", "word_of_walk",
    "word_to_str",
]
