"""Exception types shared across the package."""


class EmptyPatternError(ValueError):
    """Occurrence counting against an empty pattern is rejected outright."""


class BadStartLengthError(ValueError):
    """Start word does not have the graph dimension as its length."""


class NotAWalkError(ValueError):
    """Vertex sequence is empty or violates the edge relation."""


class CompositionUndefinedError(ValueError):
    """A cycle cannot be spliced into the walk: its root never occurs, or no
    duplicate-free prefix reaches the root's first occurrence."""


class NotATraceError(ValueError):
    """Candidate path/cycle collection is not the trace of any walk."""


class DimensionCapError(RuntimeError):
    """Building the graph would exceed the configured vertex cap."""


class CapExceededError(RuntimeError):
    """An enumeration hit a configured limit; output was truncated, not exhausted."""


class BudgetExceededError(RuntimeError):
    """Solver ran out of nodes before reaching a verdict."""


class WitnessError(RuntimeError):
    """A witness failed its exact re-check against the system or language it
    claims to satisfy. Raised explicitly, so the check also runs under -O."""
