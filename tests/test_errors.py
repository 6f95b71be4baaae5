"""The domain check of array arguments: a pass copies nothing, a failure names the first bad value."""

import math

import numpy as np
import pytest

from qsl.errors import DomainError, require


def test_a_passing_array_extracts_nothing(monkeypatch):
    def extract(*args):
        raise AssertionError("a passing check copied its failures out")

    monkeypatch.setattr(np, "extract", extract)
    x = np.linspace(0.0, 1.0, 101)
    assert require((x >= 0.0) & (x <= 1.0), x, "x must lie in [0, 1]") is None
    assert require(True, 0.5, "x must lie in [0, 1]") is None
    assert require(np.True_, 0.5, "x must lie in [0, 1]") is None


@pytest.mark.parametrize("values, first", [
    ([0.5, -1.0, 2.0], "-1.0"),
    ([0.5, math.nan, -1.0], "nan"),
    ([[0.5, 0.2], [3.0, math.inf]], "3.0"),
    (-0.25, "-0.25"),
    (math.nan, "nan"),
])
def test_a_failure_names_the_first_bad_value(values, first):
    x = np.asarray(values)
    with pytest.raises(DomainError) as caught:
        require((x >= 0.0) & (x <= 1.0), x, "x must lie in [0, 1]")
    assert str(caught.value) == f"x must lie in [0, 1], got {first}"
