"""Shared exception types.

Every error raised on purpose by this package derives from GraphMotiveError,
so callers (and the CLI) can distinguish our failures from genuine bugs.
"""

from __future__ import annotations


class GraphMotiveError(Exception):
    pass


class NotPrimePower(GraphMotiveError):
    """Field order is not p^n for a prime p."""


class NotSimple(GraphMotiveError):
    """Operation requires a simple graph (no loops, no multiple edges)."""


class BadVertex(GraphMotiveError):
    """Vertex index out of range."""


class BadParams(GraphMotiveError):
    """Parameters outside the documented contract."""


class BadArgs(BadParams):
    """Nonsensical arguments to a closed-form count (e.g. negative dimension)."""


class TooLarge(GraphMotiveError):
    """Instance exceeds a hard structural limit (not the enumeration budget)."""


class LengthMismatch(GraphMotiveError):
    """Point or vector length does not match the expected dimension."""


class BudgetExceeded(GraphMotiveError):
    """Enumeration would exceed the configured evaluation cap: it needs
    `required` evaluations or, when that is None, at least 2^`log2`.  A
    requirement of over 4300 digits is stated as a power of two too."""

    def __init__(self, required, limit: int, what: str = "enumeration", log2=None):
        self.required = required
        self.budget = limit
        self.what = what
        if required is not None:
            log2 = required.bit_length() - 1
        needs = f"at least 2^{log2}"
        if required is not None and required < 10**4300:
            needs = str(required)
        super().__init__(f"{what} needs {needs} evaluations, budget is {limit}")


class NotAForest(GraphMotiveError):
    """Graph has a cycle where a forest is required."""


class InsufficientPoints(GraphMotiveError):
    """Not enough sample points for the requested fit degree."""


class ParseError(GraphMotiveError):
    """Malformed textual input (graph, matroid, or CLI payload)."""
