"""Exception types shared across the package, the domain check of array arguments, and delta's."""

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class NoSignChange(ValueError):
    """A root bracket does not straddle a sign change."""


class NoConvergence(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


def require(ok, values, requirement: str) -> None:
    """Raise DomainError naming the first of ``values`` (one number or an array) where ``ok`` fails."""
    # a test that holds everywhere, the common case, copies nothing out
    if ok is True or ok is np.True_ or np.all(ok):
        return
    bad = np.extract(np.logical_not(ok), values)
    if bad.size:
        raise DomainError(f"{requirement}, got {bad[0]}")


def delta_array(delta) -> np.ndarray:
    """``delta``, one number or an array, as a float64 array (no copy of one) checked in [0, 1]."""
    d = np.asarray(delta, dtype=np.float64)
    require((0.0 <= d) & (d <= 1.0), d, "delta must lie in [0, 1]")
    return d
