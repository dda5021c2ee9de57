"""Shared exception types.

Everything derives from ValueError so callers that only care about
"bad input" can catch one type, while the CLI and tests can tell the
specific failure modes apart.
"""


class BudgetError(ValueError):
    """Exact enumeration was requested beyond the supported sample budget."""


class BranchError(ValueError):
    """A phase argument lies outside the monotone branch of the response."""
