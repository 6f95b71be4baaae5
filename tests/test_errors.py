"""The domain check of array arguments: a pass copies nothing, a failure names the first bad value.

Every public function that takes delta checks it by one rule and returns one shape for it.
"""

import math

import numpy as np
import pytest

from qsl import bounds, oracle, qsim
from qsl.errors import DomainError, require

# every public function that takes delta, as a function of delta alone
ARRAY_DELTA = {
    "lower_bound_m": bounds.lower_bound_m,
    "upper_bound_M": bounds.upper_bound_M,
    "alpha": bounds.alpha,
    "mt_alpha": bounds.mt_alpha,
    "max_F_over_q": lambda d: bounds.max_F_over_q(4.0, d),
    "omega_to_z": lambda d: bounds.omega_to_z(0.0, d),
    "minimax_bruteforce_m": lambda d: oracle.minimax_bruteforce_m(d, 64),
    "two_level_passage_time": lambda d: oracle.two_level_passage_time(0.7, d),
    "two_level_min_time": oracle.two_level_min_time,
}
# these two take one delta
ONE_DELTA = {
    "f_max_closed": lambda d: bounds.f_max_closed(d, 0.0),
    "first_passage": lambda d: qsim.first_passage(
        qsim.two_level_state(math.sqrt(0.5)), d, 10.0),
}
DELTA_FUNCTIONS = {**ARRAY_DELTA, **ONE_DELTA}


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


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("name", sorted(DELTA_FUNCTIONS))
def test_every_delta_function_names_a_delta_outside_the_unit_interval(name, bad):
    fn = DELTA_FUNCTIONS[name]
    message = f"delta must lie in [0, 1], got {bad}"
    with pytest.raises(DomainError) as caught:
        fn(bad)
    assert str(caught.value) == message
    if name in ARRAY_DELTA:
        with pytest.raises(DomainError) as caught:
            fn(np.array([0.5, bad, 2.0]))
        assert str(caught.value) == message


@pytest.mark.parametrize("delta", [0.5, np.float64(0.25), np.array(0.75), 1])
@pytest.mark.parametrize("name", sorted(DELTA_FUNCTIONS))
def test_a_scalar_delta_gives_a_float(name, delta):
    value = DELTA_FUNCTIONS[name](delta)
    assert np.ndim(value) == 0 and isinstance(value, float)


@pytest.mark.parametrize("shape", [(1,), (2, 3)])
@pytest.mark.parametrize("name", sorted(ARRAY_DELTA))
def test_an_array_delta_keeps_its_shape(name, shape):
    deltas = np.linspace(0.1, 0.9, math.prod(shape)).reshape(shape)
    value = ARRAY_DELTA[name](deltas)
    assert isinstance(value, np.ndarray) and value.shape == shape
    # each value is the one its delta gives alone
    assert value.ravel().tolist() == [ARRAY_DELTA[name](d) for d in deltas.ravel().tolist()]
