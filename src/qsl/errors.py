"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class NoSignChange(ValueError):
    """A root bracket does not straddle a sign change."""


class NoConvergence(RuntimeError):
    """An iterative solver exhausted its iteration budget."""

